//===- smt/Solver.cpp ------------------------------------------------------=//

#include "smt/Solver.h"
#include "smt/Z3Lower.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <optional>
#include <thread>

namespace grassp {
namespace smt {

namespace {

constexpr unsigned NoTimeout = 4294967295u; // Z3's "unbounded".

/// The value of Z3's `timeout` param a check runs under. With a valid
/// token the interrupt watcher enforces the budget and Z3's own timer
/// stays disarmed (see ScopedInterruptWatcher); without one, Z3's
/// timeout is used as usual and no interrupt is ever issued.
unsigned z3Timeout(unsigned EffectiveMs, const CancelToken &Token) {
  return (Token.valid() || EffectiveMs == 0) ? NoTimeout : EffectiveMs;
}

/// The SMT budget of a check. A token deadline clamps it: a query
/// admitted 800ms before the deadline runs under an 800ms timeout even
/// when the budget ladder would grant more.
unsigned effectiveMs(unsigned TimeoutMs, const CancelToken &Token) {
  return Token.deadline().remainingMs(TimeoutMs);
}

} // namespace

struct SmtSolver::Impl {
  z3::context Ctx;
  z3::solver Solver;
  std::optional<z3::model> Model;
  /// Keeps every asserted root until releaseTerms().
  Z3Lowerer Lower;

  /// The `timeout` param in force on Solver.
  unsigned SolverTimeout = NoTimeout;

  Impl() : Solver(Ctx), Lower(Ctx) { configure(Solver, SolverTimeout); }

  /// Sets both params a solver needs in one call. Setting params is
  /// not cheap: Z3 validates them against the solver's whole parameter
  /// table and re-applies them, about 1 ms a call, and calls on
  /// concurrent threads slow each other down (EXPERIMENTS.md, "One SMT
  /// session per synthesis attempt"). So each solver is configured
  /// once, and check() re-sets the timeout only when it changes.
  ///
  /// Z3 installs its own SIGINT handler around every check by default,
  /// which would swallow Ctrl-C mid-solve (interrupting just that one
  /// query and resuming the run). Signal policy belongs to
  /// installSignalSource(); cancellation reaches in-flight checks via
  /// the interrupt watcher instead.
  void configure(z3::solver &S, unsigned Timeout) {
    z3::params P(Ctx);
    P.set("ctrl_c", false);
    P.set("timeout", Timeout);
    S.set(P);
  }

  /// Runs one check on \p S, whose `timeout` param is already the one
  /// z3Timeout() gives for \p EffectiveMs and \p Token.
  SatResult run(z3::solver &S, unsigned EffectiveMs,
                const CancelToken &Token);
};

SmtSolver::SmtSolver() : I(std::make_unique<Impl>()) {}
SmtSolver::~SmtSolver() = default;

void SmtSolver::add(const ir::ExprRef &E) {
  assert(E->getType() == ir::TypeKind::Bool && "assertions must be Bool");
  I->Solver.add(I->Lower.lower(E));
}

void SmtSolver::push() { I->Solver.push(); }
void SmtSolver::pop() { I->Solver.pop(); }

void SmtSolver::releaseTerms() {
  I->Lower.clear();
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
  if (Token.cancelled())
    return SatResult::Cancelled;
  unsigned EffectiveMs = effectiveMs(TimeoutMs, Token);
  unsigned Timeout = z3Timeout(EffectiveMs, Token);
  if (Timeout != I->SolverTimeout) {
    z3::params P(I->Ctx);
    P.set("timeout", Timeout);
    I->Solver.set(P);
    I->SolverTimeout = Timeout;
  }
  return I->run(I->Solver, EffectiveMs, Token);
}

SatResult SmtSolver::recheckFresh(unsigned TimeoutMs, CancelToken Token) {
  ++Checks;
  if (Token.cancelled())
    return SatResult::Cancelled;
  unsigned EffectiveMs = effectiveMs(TimeoutMs, Token);
  // A solver that never saw push() or a second check() runs Z3's
  // default (tactic) pipeline; it shares the context, so the asserted
  // terms carry over without lowering again.
  z3::solver Fresh(I->Ctx);
  I->configure(Fresh, z3Timeout(EffectiveMs, Token));
  for (const z3::expr &A : I->Solver.assertions())
    Fresh.add(A);
  return I->run(Fresh, EffectiveMs, Token);
}

SatResult SmtSolver::Impl::run(z3::solver &S, unsigned EffectiveMs,
                               const CancelToken &Token) {
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
