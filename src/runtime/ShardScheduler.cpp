//===- runtime/ShardScheduler.cpp -----------------------------------------=//

#include "runtime/ShardScheduler.h"

#include "support/Random.h"

#include <algorithm>

namespace grassp {
namespace runtime {

double decorrelatedBackoff(double Base, double Cap, double Prev,
                           uint64_t Seed, uint64_t Key) {
  if (Base <= 0.0)
    return 0.0;
  if (Cap < Base)
    Cap = Base;
  if (Prev < Base)
    Prev = Base;
  // Uniform in [Base, 3*Prev]: one SplitMix64 draw keyed by (Seed, Key);
  // 2^64 as a double is exact, so the quotient lies in [0, 1).
  double U = static_cast<double>(
                 Rng(Seed + 0x9e3779b97f4a7c15ULL * Key).next()) /
             18446744073709551616.0;
  double Sleep = Base + U * (3.0 * Prev - Base);
  return std::min(Sleep, Cap);
}

RecoveryCounters &RecoveryCounters::operator+=(const RecoveryCounters &O) {
  Runs += O.Runs;
  FailedAttempts += O.FailedAttempts;
  Retries += O.Retries;
  ShardsReassigned += O.ShardsReassigned;
  SpeculativeLaunches += O.SpeculativeLaunches;
  SpeculativeWins += O.SpeculativeWins;
  SerialRefolds += O.SerialRefolds;
  WorkersKilled += O.WorkersKilled;
  WorkersExited += O.WorkersExited;
  WorkersRestarted += O.WorkersRestarted;
  CorruptFrames += O.CorruptFrames;
  HangsDetected += O.HangsDetected;
  return *this;
}

ShardScheduler::ShardScheduler(const RunPolicy &Policy,
                               std::vector<uint64_t> ShardElems, uint64_t Run)
    : Policy(Policy), Run(Run), Shards(ShardElems.size()) {
  Counters.Runs = 1;
  for (size_t I = 0; I != Shards.size(); ++I) {
    Shards[I].Elems = ShardElems[I];
    Waiting.push_back(I);
  }
}

ShardScheduler::Decision ShardScheduler::next(int64_t NowNs, Capacity Room) {
  Decision D;
  if (Policy.Token.cancelled())
    D.S = Step::Cancel;
  else if (Done == Shards.size())
    D.S = Step::Merge;
  if (D.S != Step::Wait)
    return D;

  // Waiting shards, oldest first: refold the exhausted (or all, when
  // offline), deal the first whose backoff gate is open.
  for (auto It = Waiting.begin(); It != Waiting.end(); ++It) {
    Shard &S = Shards[*It];
    if (Room.Offline || exhausted(S)) {
      D.S = Step::Refold;
      D.A.Shard = *It;
      S.Done = true;
      ++Done;
      ++Counters.SerialRefolds;
    } else if (S.EligibleNs > NowNs) {
      D.UntilNs = std::min(D.UntilNs, S.EligibleNs);
      continue;
    } else if (Room.Deal) {
      D.S = Step::Deal;
      D.A = launch(*It, /*Backup=*/false);
    } else {
      continue;
    }
    Waiting.erase(It);
    return D;
  }

  // Stragglers: a primary past its deadline gets the shard's one backup
  // while the shard still has an attempt to spend.
  if (Policy.Speculate && Room.Backup && NextDeadlineNs <= NowNs) {
    NextDeadlineNs = INT64_MAX;
    for (size_t I = 0; I != Shards.size(); ++I) {
      const Shard &S = Shards[I];
      if (S.StartNs < 0 || S.Done || S.BackedUp || exhausted(S))
        continue;
      int64_t Due = S.StartNs + taskDeadlineNs(Policy, S.Elems);
      if (Due < NowNs) {
        NextDeadlineNs = NowNs; // the rest of the scan is still owed.
        D.S = Step::Backup;
        D.A = launch(I, /*Backup=*/true);
        return D;
      }
      NextDeadlineNs = std::min(NextDeadlineNs, Due);
    }
  }
  if (Policy.Speculate && NextDeadlineNs > NowNs)
    D.UntilNs = std::min(D.UntilNs, NextDeadlineNs);
  return D;
}

ShardScheduler::Attempt ShardScheduler::launch(size_t I, bool Backup) {
  Shard &S = Shards[I];
  if (Backup) {
    S.BackedUp = true;
    ++Counters.SpeculativeLaunches;
  } else if (S.Attempts != 0) {
    ++Counters.Retries;
  }
  ++S.Outstanding;
  unsigned N = S.Attempts++;
  return {I, N, Backup, distAttemptKey(Run, N, I)};
}

void ShardScheduler::started(const Attempt &A, int64_t NowNs) {
  Shard &S = Shards[A.Shard];
  if (A.Backup || S.Done)
    return;
  S.StartNs = NowNs;
  NextDeadlineNs =
      std::min(NextDeadlineNs, NowNs + taskDeadlineNs(Policy, S.Elems));
}

bool ShardScheduler::completed(const Attempt &A) {
  Shard &S = Shards[A.Shard];
  --S.Outstanding;
  if (!A.Backup)
    S.StartNs = -1;
  if (S.Done)
    return false; // a late loser: the commit stands.
  S.Done = true;
  ++Done;
  Counters.SpeculativeWins += A.Backup;
  return true;
}

void ShardScheduler::failed(const Attempt &A, int64_t NowNs) {
  ++Counters.FailedAttempts;
  release(A, NowNs, /*Lost=*/false);
}

void ShardScheduler::lost(const Attempt &A, int64_t NowNs) {
  release(A, NowNs, /*Lost=*/true);
}

void ShardScheduler::release(const Attempt &A, int64_t NowNs, bool Lost) {
  Shard &S = Shards[A.Shard];
  --S.Outstanding;
  if (!A.Backup)
    S.StartNs = -1;
  if (S.Done || S.Outstanding != 0)
    return;
  Counters.ShardsReassigned += Lost;
  // Jitter keyed by the next attempt, so correlated failures do not
  // redeal in lockstep.
  S.PrevSleep = decorrelatedBackoff(
      Policy.BackoffSeconds, Policy.BackoffCapSeconds,
      S.PrevSleep > 0 ? S.PrevSleep : Policy.BackoffSeconds,
      Policy.BackoffJitterSeed, distAttemptKey(Run, S.Attempts, A.Shard));
  S.EligibleNs = NowNs + static_cast<int64_t>(S.PrevSleep * 1e9);
  Waiting.push_back(A.Shard);
}

} // namespace runtime
} // namespace grassp
