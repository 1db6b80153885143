//===- tests/smt_solver_test.cpp - Z3 facade tests -------------------------=//

#include "smt/Solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>

using namespace grassp::ir;
using namespace grassp::smt;

namespace {

ExprRef iv(const char *N) { return var(N, TypeKind::Int); }

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Asserts the pigeonhole principle for \p N pigeons in N - 1 holes:
/// unsat, and exponential for Z3 in N (here N = 7 takes about 0.2 s and
/// N = 8 about 3 s), yet finite, so a check whose timeout is wrongly
/// unbounded answers Unsat instead of hanging.
void addPigeonhole(SmtSolver &S, int N) {
  std::vector<ExprRef> X;
  for (int I = 0; I != N; ++I) {
    X.push_back(iv(("pigeon" + std::to_string(I)).c_str()));
    S.add(ge(X.back(), constInt(0)));
    S.add(lt(X.back(), constInt(N - 1)));
  }
  for (int I = 0; I != N; ++I)
    for (int J = I + 1; J != N; ++J)
      S.add(ne(X[I], X[J]));
}

TEST(SmtSolver, SatAndModel) {
  SmtSolver S;
  S.add(eq(add(iv("x"), iv("y")), constInt(10)));
  S.add(gt(iv("x"), constInt(7)));
  ASSERT_EQ(S.check(), SatResult::Sat);
  int64_t X = S.modelInt("x"), Y = S.modelInt("y");
  EXPECT_EQ(X + Y, 10);
  EXPECT_GT(X, 7);
}

TEST(SmtSolver, Unsat) {
  SmtSolver S;
  S.add(gt(iv("x"), constInt(5)));
  S.add(lt(iv("x"), constInt(3)));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

TEST(SmtSolver, PushPop) {
  SmtSolver S;
  S.add(gt(iv("x"), constInt(0)));
  S.push();
  S.add(lt(iv("x"), constInt(0)));
  EXPECT_EQ(S.check(), SatResult::Unsat);
  S.pop();
  EXPECT_EQ(S.check(), SatResult::Sat);
  EXPECT_EQ(S.numChecks(), 2u);
}

TEST(SmtSolver, BoolVars) {
  SmtSolver S;
  ExprRef B = var("b", TypeKind::Bool);
  S.add(B);
  ASSERT_EQ(S.check(), SatResult::Sat);
  EXPECT_TRUE(S.modelBool("b"));
}

TEST(SmtSolver, EuclideanDivModSemantics) {
  // -7 div 2 == -4 and -7 mod 2 == 1 must be valid (unsat negation).
  SmtSolver S;
  S.add(ne(intDiv(constInt(-7), add(iv("z"), constInt(2))),
           constInt(-4))); // z == 0 forced below
  S.add(eq(iv("z"), constInt(0)));
  EXPECT_EQ(S.check(), SatResult::Unsat);

  SmtSolver S2;
  S2.add(eq(iv("x"), constInt(-7)));
  S2.add(ne(intMod(iv("x"), constInt(2)), constInt(1)));
  EXPECT_EQ(S2.check(), SatResult::Unsat);
}

TEST(SmtSolver, MinMaxIteLowering) {
  // max(x, y) >= x /\ max(x, y) >= y is valid.
  SmtSolver S;
  ExprRef M = smax(iv("x"), iv("y"));
  S.add(lnot(land(ge(M, iv("x")), ge(M, iv("y")))));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

TEST(SmtSolver, IteAndConnectives) {
  // ite(b, x, y) picks a branch: (b -> r == x) /\ (!b -> r == y).
  SmtSolver S;
  ExprRef B = var("b", TypeKind::Bool);
  ExprRef R = ite(B, iv("x"), iv("y"));
  S.add(lnot(lor(land(B, eq(R, iv("x"))),
                 land(lnot(B), eq(R, iv("y"))))));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

// -- Cancellation ---------------------------------------------------------

TEST(SmtSolver, CancelledBeforeCheckSkipsTheQuery) {
  SmtSolver S;
  S.add(gt(iv("x"), constInt(0)));
  grassp::CancelToken T = grassp::CancelToken::root();
  T.cancel();
  EXPECT_EQ(S.check(0, T), SatResult::Cancelled);
  // The solver survives: the same query without a token still answers.
  EXPECT_EQ(S.check(), SatResult::Sat);
}

TEST(SmtSolver, TokenInterruptsAnInFlightCheck) {
  // A semiprime factoring query: finding 1 < x <= y with
  // x*y == 1000003 * 999999937 takes Z3 far longer than this test may.
  // Firing the token ~100ms in must interrupt the in-flight check and
  // return Cancelled well before the 30s SMT budget.
  SmtSolver S;
  int64_t N = int64_t(1000003) * int64_t(999999937);
  S.add(eq(mul(iv("x"), iv("y")), constInt(N)));
  S.add(gt(iv("x"), constInt(1)));
  S.add(ge(iv("y"), iv("x")));
  S.add(lt(iv("x"), iv("y"))); // rule out the trivial sqrt probe too.

  grassp::CancelToken T = grassp::CancelToken::root();
  std::thread Firer([&T] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    T.cancel();
  });
  auto T0 = std::chrono::steady_clock::now();
  SatResult R = S.check(30000, T);
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  Firer.join();
  EXPECT_EQ(R, SatResult::Cancelled);
  // Far under the SMT budget; generous slack for loaded CI machines.
  EXPECT_LT(Elapsed, 10.0);

  // The context survives the interrupt: a fresh trivial check works.
  SmtSolver S2;
  S2.add(gt(iv("x"), constInt(0)));
  EXPECT_EQ(S2.check(), SatResult::Sat);
}

TEST(SmtSolver, TokenDeadlineClampsTheTimeout) {
  // No explicit cancel: the token's deadline alone bounds the check, so
  // the slow query returns (Cancelled or Unknown, depending on whether
  // Z3's timeout or the deadline poll wins the race) almost at once.
  SmtSolver S;
  int64_t N = int64_t(1000003) * int64_t(999999937);
  S.add(eq(mul(iv("x"), iv("y")), constInt(N)));
  S.add(gt(iv("x"), constInt(1)));
  S.add(lt(iv("x"), iv("y")));

  grassp::CancelToken T =
      grassp::CancelToken::root().child(grassp::Deadline::after(0.1));
  auto T0 = std::chrono::steady_clock::now();
  SatResult R = S.check(30000, T);
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  EXPECT_TRUE(R == SatResult::Cancelled || R == SatResult::Unknown);
  EXPECT_LT(Elapsed, 10.0);
}

// -- One solver, many queries ---------------------------------------------

TEST(SmtSolver, CancellableChecksReturnAsSoonAsZ3Does) {
  // A valid token arms the interrupt watcher; a check that Z3 settles
  // at once must not then wait for the watcher's poll interval.
  SmtSolver S;
  grassp::CancelToken T = grassp::CancelToken::root();
  auto T0 = std::chrono::steady_clock::now();
  for (int K = 0; K != 20; ++K) {
    S.push();
    S.add(gt(iv("x"), constInt(K)));
    EXPECT_EQ(S.check(30000, T), SatResult::Sat);
    S.pop();
  }
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  EXPECT_LT(Elapsed, 0.5);
}

TEST(SmtSolver, BudgetInterruptLeavesNoStaleInterrupt) {
  // The watcher interrupts the slow query when its 100ms budget runs
  // out; the next queries on the same solver must be unaffected.
  SmtSolver S;
  grassp::CancelToken T = grassp::CancelToken::root();
  int64_t N = int64_t(1000003) * int64_t(999999937);
  S.push();
  S.add(eq(mul(iv("x"), iv("y")), constInt(N)));
  S.add(gt(iv("x"), constInt(1)));
  S.add(lt(iv("x"), iv("y")));
  EXPECT_EQ(S.check(100, T), SatResult::Unknown);
  S.pop();
  S.releaseTerms();

  S.push();
  S.add(gt(iv("x"), constInt(5)));
  S.add(lt(iv("x"), constInt(7)));
  ASSERT_EQ(S.check(30000, T), SatResult::Sat);
  EXPECT_EQ(S.modelInt("x"), 6);
  S.pop();
  S.releaseTerms();

  S.push();
  S.add(gt(iv("x"), constInt(5)));
  S.add(lt(iv("x"), constInt(6)));
  EXPECT_EQ(S.check(30000, T), SatResult::Unsat);
  S.pop();
  EXPECT_EQ(S.numChecks(), 3u);
}

TEST(SmtSolver, TimeoutFollowsEachCheckOnOneSolver) {
  // The Z3 timeout is set on a solver only when it changes; each check
  // must still run under its own: unbounded, then a 1ms budget, then
  // unbounded again for a token check (the watcher owns its budget).
  SmtSolver S;
  S.add(ge(iv("z"), constInt(0)));
  ASSERT_EQ(S.check(), SatResult::Sat);

  S.push();
  addPigeonhole(S, 7);
  EXPECT_EQ(S.check(1), SatResult::Unknown);
  S.pop();

  // Not cut off at the 1ms left from the previous check: the query
  // runs until the token fires.
  S.push();
  addPigeonhole(S, 8);
  grassp::CancelToken T = grassp::CancelToken::root();
  std::thread Firer([&T] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    T.cancel();
  });
  auto T0 = std::chrono::steady_clock::now();
  SatResult R = S.check(30000, T);
  double Elapsed = secondsSince(T0);
  Firer.join();
  EXPECT_EQ(R, SatResult::Cancelled);
  EXPECT_GE(Elapsed, 0.12);
  EXPECT_LT(Elapsed, 10.0);
  S.pop();

  // And a token-less budget after a token check is in force again.
  S.push();
  addPigeonhole(S, 7);
  EXPECT_EQ(S.check(1), SatResult::Unknown);
  S.pop();
  EXPECT_EQ(S.numChecks(), 4u);
}

std::atomic<int> SigintsSeen{0};
void countSigint(int) { SigintsSeen.fetch_add(1); }

TEST(SmtSolver, RecheckFreshKeepsCtrlCOffAndHonoursTheBudget) {
  SmtSolver S;
  S.add(ge(iv("z"), constInt(0)));
  ASSERT_EQ(S.check(), SatResult::Sat);
  S.push();
  addPigeonhole(S, 7);
  EXPECT_EQ(S.recheckFresh(1), SatResult::Unknown);
  S.pop();

  // A SIGINT mid-check reaches the process's handler, not Z3's: with
  // ctrl_c on, Z3 would swallow it and give up on the query (Unknown)
  // long before the token fires.
  S.push();
  addPigeonhole(S, 8);
  struct sigaction Count = {}, Old = {};
  Count.sa_handler = countSigint;
  sigemptyset(&Count.sa_mask);
  ASSERT_EQ(sigaction(SIGINT, &Count, &Old), 0);
  SigintsSeen = 0;
  grassp::CancelToken T = grassp::CancelToken::root();
  std::thread Firer([&T] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::raise(SIGINT);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    T.cancel();
  });
  auto T0 = std::chrono::steady_clock::now();
  SatResult R = S.recheckFresh(30000, T);
  double Elapsed = secondsSince(T0);
  Firer.join();
  sigaction(SIGINT, &Old, nullptr);
  EXPECT_EQ(R, SatResult::Cancelled);
  EXPECT_EQ(SigintsSeen.load(), 1);
  EXPECT_GE(Elapsed, 0.12);
  EXPECT_LT(Elapsed, 10.0);
  S.pop();
}

TEST(SmtSolver, RecheckFreshSeesTheOpenScope) {
  SmtSolver S;
  S.add(gt(iv("x"), constInt(0)));
  S.push();
  S.add(lt(iv("x"), constInt(2)));
  ASSERT_EQ(S.recheckFresh(), SatResult::Sat);
  EXPECT_EQ(S.modelInt("x"), 1);
  S.add(gt(iv("x"), constInt(1)));
  EXPECT_EQ(S.recheckFresh(), SatResult::Unsat);
  S.pop();
  // The scope's assertions are gone for both kinds of check.
  EXPECT_EQ(S.recheckFresh(), SatResult::Sat);
  EXPECT_EQ(S.check(), SatResult::Sat);
  EXPECT_EQ(S.numChecks(), 4u);
}

TEST(SmtSolver, ReleasedTermsLowerAfresh) {
  // Dropping the cache frees the IR roots; new nodes that may reuse
  // their addresses must be lowered again, not served from the cache.
  SmtSolver S;
  for (int K = 0; K != 50; ++K) {
    S.push();
    S.add(eq(iv("x"), constInt(K)));
    ASSERT_EQ(S.check(), SatResult::Sat);
    EXPECT_EQ(S.modelInt("x"), K);
    S.pop();
    S.releaseTerms();
  }
}

} // namespace
