//===- smt/Solver.cpp ------------------------------------------------------=//

#include "smt/Solver.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>

#include <z3++.h>

namespace grassp {
namespace smt {

struct SmtSolver::Impl {
  z3::context Ctx;
  z3::solver Solver;
  std::optional<z3::model> Model;
  std::unordered_map<const ir::Expr *, z3::expr> Cache;
  /// Keeps every asserted root (and thus its whole DAG) alive for as
  /// long as Cache holds entries: the cache keys are raw node addresses,
  /// so a freed-and-reallocated node must never alias a cached one.
  /// releaseTerms() drops both together.
  std::vector<ir::ExprRef> Retained;

  Impl() : Solver(Ctx) { disableCtrlC(Solver); }

  /// Z3 installs its own SIGINT handler around every check by default,
  /// which would swallow Ctrl-C mid-solve (interrupting just that one
  /// query and resuming the run). Signal policy belongs to
  /// installSignalSource(); cancellation reaches in-flight checks via
  /// the interrupt watcher instead.
  void disableCtrlC(z3::solver &S) {
    z3::params P(Ctx);
    P.set("ctrl_c", false);
    S.set(P);
  }

  SatResult check(z3::solver &S, unsigned TimeoutMs,
                  const CancelToken &Token);

  z3::expr lower(const ir::ExprRef &E) {
    auto It = Cache.find(E.get());
    if (It != Cache.end())
      return It->second;
    z3::expr Z = lowerUncached(E);
    Cache.emplace(E.get(), Z);
    return Z;
  }

  z3::expr lowerUncached(const ir::ExprRef &E) {
    using ir::Op;
    switch (E->getOp()) {
    case Op::ConstInt:
      return Ctx.int_val(static_cast<int64_t>(E->intValue()));
    case Op::ConstBool:
      return Ctx.bool_val(E->boolValue());
    case Op::Var:
      if (E->getType() == ir::TypeKind::Bool)
        return Ctx.bool_const(E->varName().c_str());
      assert(E->getType() == ir::TypeKind::Int && "bag var reached solver");
      return Ctx.int_const(E->varName().c_str());
    case Op::Neg:
      return -lower(E->operand(0));
    case Op::Not:
      return !lower(E->operand(0));
    case Op::Ite:
      return z3::ite(lower(E->operand(0)), lower(E->operand(1)),
                     lower(E->operand(2)));
    default:
      break;
    }
    z3::expr A = lower(E->operand(0));
    z3::expr B = lower(E->operand(1));
    switch (E->getOp()) {
    case Op::Add:
      return A + B;
    case Op::Sub:
      return A - B;
    case Op::Mul:
      return A * B;
    case Op::Div:
      return A / B; // SMT-LIB integer div.
    case Op::Mod:
      return z3::mod(A, B);
    case Op::Min:
      return z3::ite(A <= B, A, B);
    case Op::Max:
      return z3::ite(A >= B, A, B);
    case Op::Eq:
      return A == B;
    case Op::Ne:
      return A != B;
    case Op::Lt:
      return A < B;
    case Op::Le:
      return A <= B;
    case Op::Gt:
      return A > B;
    case Op::Ge:
      return A >= B;
    case Op::And:
      return A && B;
    case Op::Or:
      return A || B;
    default:
      assert(false && "unhandled opcode in SMT lowering");
      return Ctx.bool_val(false);
    }
  }
};

SmtSolver::SmtSolver() : I(std::make_unique<Impl>()) {}
SmtSolver::~SmtSolver() = default;

void SmtSolver::add(const ir::ExprRef &E) {
  assert(E->getType() == ir::TypeKind::Bool && "assertions must be Bool");
  I->Retained.push_back(E);
  I->Solver.add(I->lower(E));
}

void SmtSolver::push() { I->Solver.push(); }
void SmtSolver::pop() { I->Solver.pop(); }

void SmtSolver::releaseTerms() {
  I->Cache.clear();
  I->Retained.clear();
}

namespace {

/// Maps a CancelToken firing — and, when armed with a budget, the SMT
/// timeout — onto Z3's interrupt while one check() is in flight. A
/// dedicated watcher thread (joined in the destructor, never detached)
/// sleeps on the token and calls z3::context::interrupt() the moment it
/// fires or the budget runs out; it then keeps re-issuing the interrupt
/// every few milliseconds until the check returns, closing the race
/// where an interrupt lands in the gap before Z3 actually starts
/// solving (Z3 consumes — and can lose — interrupts delivered between
/// checks).
///
/// The watcher owns the budget deliberately: Z3's own `timeout` param
/// arms a scoped_timer whose teardown can deadlock the check when a
/// concurrent Z3_interrupt lands at the wrong moment (observed as a
/// futex-parked check that no further interrupt wakes, with the timer
/// pool threads parked beside it). So whenever a watcher runs, the Z3
/// timer must not — one clock, no rendezvous to race.
///
/// Interrupting is safe mid-CEGIS: the check returns unknown with
/// reason "interrupted", the context and all asserted formulas stay
/// valid, and the caller discards the verdict as Cancelled (token
/// fired) or Unknown (budget expired).
///
/// The watcher sleeps on Wake, a private child of the token: the token
/// firing wakes it, and so does the destructor, which cancels Wake
/// alone. A check that finishes early therefore joins at once instead
/// of waiting out the watcher's poll.
class ScopedInterruptWatcher {
public:
  ScopedInterruptWatcher(z3::context &Ctx, const CancelToken &Token,
                         unsigned BudgetMs)
      : Ctx(Ctx), Token(Token) {
    if (BudgetMs != 0)
      BudgetEnd = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(BudgetMs);
    if (Token.valid()) {
      Wake = Token.child();
      Watcher = std::thread([this] { run(); });
    }
  }

  ~ScopedInterruptWatcher() {
    Done.store(true, std::memory_order_release);
    Wake.cancel();
    if (Watcher.joinable())
      Watcher.join();
  }

private:
  bool budgetExpired() const {
    return BudgetEnd && std::chrono::steady_clock::now() >= *BudgetEnd;
  }

  void run() {
    while (!Done.load(std::memory_order_acquire)) {
      if (Token.cancelled() || budgetExpired()) {
        Ctx.interrupt();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      } else {
        // Wakes early when the token fires or the check is done; the
        // 50ms cap bounds how long a deadline/budget expiry (which
        // fires no callbacks) goes unnoticed.
        Wake.waitCancelledFor(0.05);
      }
    }
  }

  z3::context &Ctx;
  CancelToken Token;
  CancelToken Wake;
  std::optional<std::chrono::steady_clock::time_point> BudgetEnd;
  std::thread Watcher;
  std::atomic<bool> Done{false};
};

} // namespace

SatResult SmtSolver::check(unsigned TimeoutMs, CancelToken Token) {
  ++Checks;
  return I->check(I->Solver, TimeoutMs, Token);
}

SatResult SmtSolver::recheckFresh(unsigned TimeoutMs, CancelToken Token) {
  ++Checks;
  // A solver that never saw push() or a second check() runs Z3's
  // default (tactic) pipeline; it shares the context, so the asserted
  // terms carry over without lowering again.
  z3::solver Fresh(I->Ctx);
  I->disableCtrlC(Fresh);
  for (const z3::expr &A : I->Solver.assertions())
    Fresh.add(A);
  return I->check(Fresh, TimeoutMs, Token);
}

SatResult SmtSolver::Impl::check(z3::solver &S, unsigned TimeoutMs,
                                 const CancelToken &Token) {
  if (Token.cancelled())
    return SatResult::Cancelled;
  // A token deadline clamps the SMT budget: a query admitted 800ms
  // before the deadline runs under an 800ms timeout even when the
  // budget ladder would grant more.
  unsigned EffectiveMs = Token.deadline().remainingMs(TimeoutMs);
  // With a valid token the interrupt watcher enforces the budget and
  // Z3's own timer stays disarmed (see ScopedInterruptWatcher); the
  // explicit no-timeout value also clears any timeout a previous
  // token-less check left set on this solver. Without a token, Z3's
  // timeout param is used as usual and no interrupt is ever issued.
  {
    constexpr unsigned NoTimeout = 4294967295u; // Z3's "unbounded".
    z3::params P(Ctx);
    P.set("timeout", (Token.valid() || EffectiveMs == 0) ? NoTimeout
                                                         : EffectiveMs);
    S.set(P);
  }
  Model.reset();
  z3::check_result R;
  {
    ScopedInterruptWatcher Watch(Ctx, Token, EffectiveMs);
    R = S.check();
  }
  if (Token.cancelled())
    return SatResult::Cancelled; // interrupted (or raced the verdict).
  switch (R) {
  case z3::sat:
    Model = S.get_model();
    return SatResult::Sat;
  case z3::unsat:
    return SatResult::Unsat;
  case z3::unknown:
    return SatResult::Unknown;
  }
  return SatResult::Unknown;
}

int64_t SmtSolver::modelInt(const std::string &Name) const {
  assert(I->Model && "no model available");
  z3::expr V = I->Model->eval(I->Ctx.int_const(Name.c_str()),
                              /*model_completion=*/true);
  int64_t Out = 0;
  if (!V.is_numeral_i64(Out))
    return 0;
  return Out;
}

bool SmtSolver::modelBool(const std::string &Name) const {
  assert(I->Model && "no model available");
  z3::expr V = I->Model->eval(I->Ctx.bool_const(Name.c_str()),
                              /*model_completion=*/true);
  return V.is_true();
}

} // namespace smt
} // namespace grassp
