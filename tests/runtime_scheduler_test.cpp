//===- tests/runtime_scheduler_test.cpp - ShardScheduler state machine ----==//
//
// Drives runtime::ShardScheduler with a fake clock and scripted events,
// the way its three executors (inline, thread pool, process pool) do,
// and pins the recovery policy they share: first commit wins, backoff
// gates, the refold after MaxRetries + 1 attempts, one backup per
// shard, cancellation, and the attempt keys.
//
//===----------------------------------------------------------------------===//

#include "runtime/ShardScheduler.h"

#include <gtest/gtest.h>

using namespace grassp;
using namespace grassp::runtime;

namespace {

using Step = ShardScheduler::Step;
using Decision = ShardScheduler::Decision;

constexpr int64_t Ms = 1000000;
const ShardScheduler::Capacity Any{/*Deal=*/true, /*Backup=*/true};

/// A policy with no jitter and no element-scaled deadline, so every
/// time below is exact.
RunPolicy quietPolicy() {
  RunPolicy P;
  P.BackoffSeconds = 0;
  P.TaskDeadlineSeconds = 0.001;
  P.DeadlineNsPerElem = 0;
  return P;
}

TEST(ShardScheduler, LateLoserNeverOverwritesTheCommit) {
  ShardScheduler S(quietPolicy(), {100}, 0);
  Decision P = S.next(0, Any);
  ASSERT_EQ(P.S, Step::Deal);
  S.started(P.A, 0);
  // Nothing is due before the 1ms deadline.
  EXPECT_EQ(S.next(Ms / 2, Any).S, Step::Wait);
  Decision B = S.next(2 * Ms, Any);
  ASSERT_EQ(B.S, Step::Backup);
  EXPECT_TRUE(B.A.Backup);
  EXPECT_EQ(B.A.Shard, 0u);
  EXPECT_EQ(B.A.Number, 1u);

  EXPECT_TRUE(S.completed(B.A));  // the backup commits first...
  EXPECT_FALSE(S.completed(P.A)); // ...and the primary's output is dropped.
  EXPECT_EQ(S.done(), 1u);
  EXPECT_EQ(S.counters().SpeculativeLaunches, 1u);
  EXPECT_EQ(S.counters().SpeculativeWins, 1u);
  EXPECT_EQ(S.counters().Runs, 1u);
  EXPECT_EQ(S.next(3 * Ms, Any).S, Step::Merge);
}

TEST(ShardScheduler, NothingIsRedealtBeforeTheBackoffGateOpens) {
  RunPolicy Pol = quietPolicy();
  Pol.BackoffSeconds = 0.002;
  Pol.BackoffCapSeconds = 0.05;
  Pol.Speculate = false;
  ShardScheduler S(Pol, {10, 10}, 0);
  Decision A = S.next(0, Any);
  Decision B = S.next(0, Any);
  ASSERT_EQ(A.S, Step::Deal);
  ASSERT_EQ(B.S, Step::Deal);
  S.started(A.A, 0);
  S.started(B.A, 0);
  S.failed(A.A, 5 * Ms);
  EXPECT_EQ(S.counters().FailedAttempts, 1u);

  Decision W = S.next(5 * Ms, Any);
  ASSERT_EQ(W.S, Step::Wait);
  // The gate is at least the base backoff away, and at most the cap.
  EXPECT_GE(W.UntilNs, 7 * Ms);
  EXPECT_LE(W.UntilNs, 55 * Ms);
  EXPECT_EQ(S.next(W.UntilNs - 1, Any).S, Step::Wait);
  Decision R = S.next(W.UntilNs, Any);
  ASSERT_EQ(R.S, Step::Deal);
  EXPECT_EQ(R.A.Shard, A.A.Shard);
  EXPECT_EQ(R.A.Number, 1u);
  EXPECT_EQ(S.counters().Retries, 1u);
}

TEST(ShardScheduler, RefoldsExactlyAfterMaxRetriesPlusOneAttempts) {
  RunPolicy Pol = quietPolicy();
  Pol.MaxRetries = 2;
  ShardScheduler S(Pol, {10}, 0);
  // Attempt 0 straggles and gets attempt 1 as its backup.
  Decision P = S.next(0, Any);
  S.started(P.A, 0);
  Decision B = S.next(2 * Ms, Any);
  ASSERT_EQ(B.S, Step::Backup);
  S.started(B.A, 2 * Ms);
  S.failed(P.A, 3 * Ms);
  // The backup still runs: the shard is not released yet.
  EXPECT_EQ(S.next(3 * Ms, Any).S, Step::Wait);
  S.lost(B.A, 4 * Ms);
  EXPECT_EQ(S.counters().ShardsReassigned, 1u);
  // Two attempts spent, one left: attempt 2 is dealt, not refolded.
  Decision R = S.next(4 * Ms, Any);
  ASSERT_EQ(R.S, Step::Deal);
  EXPECT_EQ(R.A.Number, 2u);
  S.started(R.A, 4 * Ms);
  S.failed(R.A, 5 * Ms);
  // MaxRetries + 1 = 3 attempts spent: the last resort.
  Decision F = S.next(5 * Ms, Any);
  ASSERT_EQ(F.S, Step::Refold);
  EXPECT_EQ(F.A.Shard, 0u);
  EXPECT_EQ(S.done(), 1u);
  EXPECT_EQ(S.counters().SerialRefolds, 1u);
  EXPECT_EQ(S.counters().FailedAttempts, 2u);
  EXPECT_EQ(S.counters().Retries, 1u);
  EXPECT_EQ(S.next(5 * Ms, Any).S, Step::Merge);
}

TEST(ShardScheduler, AShardGetsAtMostOneBackup) {
  ShardScheduler S(quietPolicy(), {10}, 0);
  Decision P = S.next(0, Any);
  S.started(P.A, 0);
  Decision B = S.next(2 * Ms, Any);
  ASSERT_EQ(B.S, Step::Backup);
  S.lost(B.A, 3 * Ms);
  // The primary is still far past its deadline; no second backup.
  for (int64_t T : {4 * Ms, 50 * Ms, 500 * Ms}) {
    Decision D = S.next(T, Any);
    EXPECT_EQ(D.S, Step::Wait) << T;
    EXPECT_EQ(D.UntilNs, INT64_MAX) << T;
  }
  EXPECT_EQ(S.counters().SpeculativeLaunches, 1u);
  EXPECT_TRUE(S.completed(P.A));
  EXPECT_EQ(S.counters().SpeculativeWins, 0u);
}

TEST(ShardScheduler, BackupsWaitForRoomAndTheirDeadline) {
  ShardScheduler S(quietPolicy(), {10}, 0);
  Decision P = S.next(0, Any);
  // Queued, not started: no deadline runs.
  EXPECT_EQ(S.next(10 * Ms, Any).UntilNs, INT64_MAX);
  S.started(P.A, 10 * Ms);
  Decision W = S.next(10 * Ms, Any);
  ASSERT_EQ(W.S, Step::Wait);
  EXPECT_EQ(W.UntilNs, 11 * Ms);
  // Overdue, but the executor has no room for a backup.
  EXPECT_EQ(S.next(12 * Ms, {/*Deal=*/true, /*Backup=*/false}).S, Step::Wait);
  EXPECT_EQ(S.next(12 * Ms, Any).S, Step::Backup);
}

TEST(ShardScheduler, CancelNeverYieldsAMerge) {
  CancelToken Token = CancelToken::root();
  RunPolicy Pol = quietPolicy();
  Pol.Token = Token;
  ShardScheduler S(Pol, {10, 10}, 0);
  Decision A = S.next(0, Any);
  Decision B = S.next(0, Any);
  S.started(A.A, 0);
  EXPECT_TRUE(S.completed(A.A));
  Token.cancel();
  EXPECT_EQ(S.next(0, Any).S, Step::Cancel);
  // Even once every shard is in, a cancelled run does not merge.
  S.started(B.A, 0);
  EXPECT_TRUE(S.completed(B.A));
  EXPECT_EQ(S.done(), 2u);
  EXPECT_EQ(S.next(1 * Ms, Any).S, Step::Cancel);

  // A token fired before the run: nothing is dealt at all.
  ShardScheduler S2(Pol, {10}, 0);
  EXPECT_EQ(S2.next(0, Any).S, Step::Cancel);
  EXPECT_EQ(S2.done(), 0u);
}

TEST(ShardScheduler, OfflineRefoldsEveryWaitingShard) {
  ShardScheduler S(quietPolicy(), {10, 10, 10}, 0);
  Decision A = S.next(0, Any);
  ASSERT_EQ(A.S, Step::Deal);
  const ShardScheduler::Capacity Offline{false, false, /*Offline=*/true};
  EXPECT_EQ(S.next(0, Offline).S, Step::Refold);
  EXPECT_EQ(S.next(0, Offline).S, Step::Refold);
  // The dealt shard waits for its attempt's report.
  EXPECT_EQ(S.next(0, Offline).S, Step::Wait);
  S.lost(A.A, 0);
  EXPECT_EQ(S.next(0, Offline).S, Step::Refold);
  EXPECT_EQ(S.next(0, Offline).S, Step::Merge);
  EXPECT_EQ(S.counters().SerialRefolds, 3u);
}

TEST(ShardScheduler, AttemptKeysAreDistAttemptKeys) {
  for (uint64_t Run : {0u, 5u}) {
    RunPolicy Pol = quietPolicy();
    Pol.Speculate = false;
    ShardScheduler S(Pol, {10, 10, 10}, Run);
    for (unsigned Attempt = 0; Attempt != 3; ++Attempt) {
      for (size_t I = 0; I != 3; ++I) {
        Decision D = S.next(0, Any);
        ASSERT_EQ(D.S, Step::Deal);
        EXPECT_EQ(D.A.Shard, I);
        EXPECT_EQ(D.A.Number, Attempt);
        EXPECT_EQ(D.A.Key, distAttemptKey(Run, Attempt, I));
        if (Run == 0) {
          EXPECT_EQ(D.A.Key, Attempt * WorkerAttemptKeyStride + I);
        }
        S.failed(D.A, 0);
      }
    }
  }
}

TEST(RecoveryCounters, PlusEqualsSumsEveryCounter) {
  RecoveryCounters A, B;
  A.Retries = 1;
  A.WorkersKilled = 2;
  B.Retries = 3;
  B.HangsDetected = 4;
  B.SerialRefolds = 5;
  A += B;
  A += B;
  EXPECT_EQ(A.Retries, 7u);
  EXPECT_EQ(A.WorkersKilled, 2u);
  EXPECT_EQ(A.HangsDetected, 8u);
  EXPECT_EQ(A.SerialRefolds, 10u);
}

} // namespace
