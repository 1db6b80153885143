//===- tests/support_cancel_test.cpp - CancelToken/Deadline semantics -----==//
//
// The cooperative-cancellation contract every layer leans on: empty
// tokens are inert, cancel() propagates root->child (never child->root),
// deadlines compose earliest-wins down the chain, interruptible sleeps
// wake promptly, and onCancel/removeOnCancel give the
// "not-running-and-never-will" guarantee pool destructors need.
//
//===----------------------------------------------------------------------===//

#include "support/Cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace grassp;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

TEST(CancelToken, EmptyTokenIsInert) {
  CancelToken T;
  EXPECT_FALSE(T.valid());
  EXPECT_FALSE(T.cancelled());
  T.cancel(); // no-op, no crash.
  EXPECT_FALSE(T.cancelled());
  EXPECT_TRUE(T.deadline().isNever());
  EXPECT_EQ(T.onCancel([] {}), 0u);
  T.removeOnCancel(0);
  // An empty token's sleep is a plain sleep: full duration elapses.
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(T.sleepFor(0.01));
  EXPECT_GE(secondsSince(T0), 0.009);
}

TEST(CancelToken, CancelPropagatesToDescendantsNotAncestors) {
  CancelToken Root = CancelToken::root();
  CancelToken Child = Root.child();
  CancelToken Grandchild = Child.child();
  CancelToken Sibling = Root.child();

  // A child cancelled alone leaves its parent and siblings alive.
  Child.cancel();
  EXPECT_TRUE(Child.cancelled());
  EXPECT_TRUE(Grandchild.cancelled());
  EXPECT_FALSE(Root.cancelled());
  EXPECT_FALSE(Sibling.cancelled());

  // Root fires the whole tree, including children minted after the
  // sibling check above.
  CancelToken Late = Root.child();
  Root.cancel();
  EXPECT_TRUE(Root.cancelled());
  EXPECT_TRUE(Sibling.cancelled());
  EXPECT_TRUE(Late.cancelled());
}

TEST(CancelToken, ChildOfFiredParentIsBornCancelled) {
  CancelToken Root = CancelToken::root();
  Root.cancel();
  EXPECT_TRUE(Root.child().cancelled());
}

TEST(CancelToken, ShortLivedChildrenDoNotHideLiveOnes) {
  // Many children die young (one per interruptible SMT check); sweeping
  // them out of the parent must keep every live child reachable.
  CancelToken Root = CancelToken::root();
  std::vector<CancelToken> Kept;
  for (int K = 0; K != 1000; ++K) {
    CancelToken Kid = Root.child();
    if (K % 10 == 0)
      Kept.push_back(Kid);
  }
  Root.cancel();
  for (const CancelToken &Kid : Kept)
    EXPECT_TRUE(Kid.cancelled());
}

TEST(CancelToken, ChildOfEmptyTokenCarriesDeadline) {
  // The driver composes Opts.Token.child(TaskDeadline) without checking
  // whether a run token was ever supplied; child() of an empty token
  // must mint live state carrying just the deadline.
  CancelToken T = CancelToken().child(Deadline::after(1000.0));
  EXPECT_TRUE(T.valid());
  EXPECT_FALSE(T.cancelled());
  EXPECT_FALSE(T.deadline().isNever());
}

TEST(CancelToken, DeadlinesComposeEarliestWins) {
  CancelToken Root = CancelToken::root();
  CancelToken Outer = Root.child(Deadline::after(100.0));
  CancelToken Inner = Outer.child(Deadline::after(1000.0));
  // The inherited 100s bound beats the local 1000s one.
  EXPECT_LE(Inner.deadline().remainingSeconds(), 100.0);
  CancelToken Tighter = Outer.child(Deadline::after(0.5));
  EXPECT_LE(Tighter.deadline().remainingSeconds(), 0.5);
  // The tight grandchild deadline never leaks up.
  EXPECT_GT(Outer.deadline().remainingSeconds(), 50.0);
}

TEST(CancelToken, ExpiredDeadlineReportsCancelled) {
  CancelToken T = CancelToken::root().child(Deadline::after(-1.0));
  EXPECT_TRUE(T.cancelled());
  // Expiry is passive and local: the parent chain is untouched.
  CancelToken Root = CancelToken::root();
  CancelToken Dead = Root.child(Deadline::after(0.0));
  EXPECT_TRUE(Dead.cancelled());
  EXPECT_FALSE(Root.cancelled());
}

TEST(CancelToken, SleepForWakesOnCancel) {
  CancelToken T = CancelToken::root();
  auto T0 = std::chrono::steady_clock::now();
  std::thread Firer([&T] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    T.cancel();
  });
  // A 10-second sleep must return within ~the firing delay.
  EXPECT_FALSE(T.sleepFor(10.0));
  EXPECT_LT(secondsSince(T0), 5.0);
  Firer.join();
  // Sleeps on an already-fired token return immediately.
  auto T1 = std::chrono::steady_clock::now();
  EXPECT_FALSE(T.sleepFor(10.0));
  EXPECT_LT(secondsSince(T1), 1.0);
}

TEST(CancelToken, SleepForHonorsDeadline) {
  CancelToken T = CancelToken::root().child(Deadline::after(0.05));
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(T.sleepFor(10.0));
  EXPECT_LT(secondsSince(T0), 5.0);
}

TEST(CancelToken, OnCancelRunsExactlyOnce) {
  CancelToken T = CancelToken::root();
  std::atomic<int> Fired{0};
  uint64_t Id = T.onCancel([&Fired] { ++Fired; });
  EXPECT_NE(Id, 0u);
  EXPECT_EQ(Fired.load(), 0);
  T.cancel();
  EXPECT_EQ(Fired.load(), 1);
  T.cancel(); // idempotent: the callback does not re-run.
  EXPECT_EQ(Fired.load(), 1);
  // Registering on an already-fired token runs the callback inline.
  std::atomic<int> LateFired{0};
  T.onCancel([&LateFired] { ++LateFired; });
  EXPECT_EQ(LateFired.load(), 1);
}

TEST(CancelToken, RemoveOnCancelPreventsTheCallback) {
  CancelToken T = CancelToken::root();
  std::atomic<int> Fired{0};
  uint64_t Id = T.onCancel([&Fired] { ++Fired; });
  T.removeOnCancel(Id);
  T.cancel();
  EXPECT_EQ(Fired.load(), 0);
}

TEST(CancelToken, CallbacksReachChildrenThroughTheTree) {
  CancelToken Root = CancelToken::root();
  CancelToken Child = Root.child();
  std::atomic<int> Fired{0};
  Child.onCancel([&Fired] { ++Fired; });
  Root.cancel();
  EXPECT_EQ(Fired.load(), 1);
}

TEST(CancelToken, WaitCancelledForBoundsTheWait) {
  CancelToken T = CancelToken::root();
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(T.waitCancelledFor(0.02));
  EXPECT_GE(secondsSince(T0), 0.015);
  T.cancel();
  EXPECT_TRUE(T.waitCancelledFor(10.0));
}

TEST(Deadline, RemainingMsClampsToCap) {
  EXPECT_EQ(Deadline::never().remainingMs(30000), 30000u);
  EXPECT_EQ(Deadline::after(1000.0).remainingMs(500), 500u);
  // Already expired still yields the 1ms floor (Z3 rejects a 0 timeout
  // as "no timeout").
  EXPECT_EQ(Deadline::after(-5.0).remainingMs(30000), 1u);
  EXPECT_LE(Deadline::after(0.050).remainingMs(30000), 51u);
}

TEST(Deadline, EarliestPicksTheTighterBound) {
  Deadline A = Deadline::after(10.0);
  Deadline B = Deadline::after(100.0);
  EXPECT_LE(A.earliest(B).remainingSeconds(), 10.0);
  EXPECT_LE(B.earliest(A).remainingSeconds(), 10.0);
  EXPECT_LE(Deadline::never().earliest(A).remainingSeconds(), 10.0);
  EXPECT_TRUE(Deadline::never().earliest(Deadline::never()).isNever());
}

} // namespace
