//===- runtime/Runner.cpp --------------------------------------------------=//

#include "runtime/Runner.h"

#include "runtime/SegmentSource.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <functional>
#include <thread>

namespace grassp {
namespace runtime {

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-segment commit cell. State 0 = pending, 1 = claimed by a winner
/// that is still copying its output out, 2 = committed and readable.
/// Primary and speculative backup race on the claim; exactly one wins.
struct Slot {
  std::atomic<int> State{0};
  std::atomic<int64_t> StartNs{-1}; // primary's start; -1 = still queued.
  std::atomic<int64_t> DurNs{0};
  std::atomic<bool> BackupLaunched{false};
};

double medianOf(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  return V[Mid];
}

/// SplitMix64 finalizer — the same stateless mixer FaultInject uses, so
/// backoff jitter is pure in (seed, key) with no shared RNG state.
uint64_t mixBits(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

} // namespace

double decorrelatedBackoff(double Base, double Cap, double Prev,
                           uint64_t Seed, uint64_t Key) {
  if (Base <= 0.0)
    return 0.0;
  if (Cap < Base)
    Cap = Base;
  if (Prev < Base)
    Prev = Base;
  // Uniform in [Base, 3*Prev]: 2^64 as a double is exact, the quotient
  // lies in [0, 1).
  double U = static_cast<double>(
                 mixBits(Seed + 0x9e3779b97f4a7c15ULL * (Key + 1))) /
             18446744073709551616.0;
  double Sleep = Base + U * (3.0 * Prev - Base);
  return std::min(Sleep, Cap);
}

int64_t runSerialTimed(const CompiledProgram &Prog,
                       const std::vector<SegmentView> &Segs,
                       double *Seconds) {
  Stopwatch Timer;
  int64_t Out = Prog.runSerial(Segs);
  if (Seconds)
    *Seconds = Timer.seconds();
  return Out;
}

namespace {

/// The shared fault-tolerance core of runParallel: retries with backoff,
/// speculative backups, guaranteed serial refolds, and cooperative
/// cancellation, parameterized over how a segment's worker output is
/// computed (\p Work — must be a pure function of the segment index,
/// callable concurrently) and how committed outputs merge (\p Merge).
/// Both the in-memory and the SegmentSource entry points are thin
/// wrappers, so out-of-core runs get the exact same guarantees.
ParallelRunResult
runParallelCore(size_t N, const std::function<WorkerOutput(size_t)> &Work,
                const std::function<int64_t(std::vector<WorkerOutput> &)> &Merge,
                ThreadPool *Pool, const RunPolicy &Policy) {
  ParallelRunResult R;
  Stopwatch Total;
  std::vector<WorkerOutput> Outputs(N);
  R.WorkerSeconds.assign(N, 0.0);
  FaultInjector *FI = Policy.Faults;

  // One fault-injected worker attempt; throws on an injected (or real)
  // failure.
  auto attemptOnce = [&](size_t I, unsigned Attempt) {
    if (FI)
      FI->maybeThrow(FaultSiteWorker, Attempt * WorkerAttemptKeyStride + I);
    return Work(I);
  };

  if (!Pool) {
    // Measured critical-path mode: sequential, per-segment retry loop;
    // injected straggler stalls are *modeled* (added to the recorded
    // worker time) rather than slept.
    for (size_t I = 0; I != N && !R.Cancelled; ++I) {
      if (Policy.Token.cancelled()) {
        R.Cancelled = true;
        break;
      }
      double InjectedStall = FI ? FI->delayFor(FaultSiteStraggler, I) : 0.0;
      double PrevSleep = Policy.BackoffSeconds;
      for (unsigned Attempt = 0;; ++Attempt) {
        Stopwatch W;
        try {
          Outputs[I] = attemptOnce(I, Attempt);
          R.WorkerSeconds[I] = W.seconds() + InjectedStall;
          ++R.CompletedSegments;
          break;
        } catch (...) {
          ++R.FailedAttempts;
          if (Policy.Token.cancelled()) {
            R.Cancelled = true;
            break;
          }
          if (Attempt >= Policy.MaxRetries) {
            // Last resort: refold the segment with no injection.
            ++R.SerialRefolds;
            Stopwatch W2;
            Outputs[I] = Work(I);
            R.WorkerSeconds[I] = W2.seconds();
            ++R.CompletedSegments;
            break;
          }
          ++R.Retries;
          // Interruptible: a fired token cuts the backoff short and the
          // next iteration notices it.
          PrevSleep = decorrelatedBackoff(
              Policy.BackoffSeconds, Policy.BackoffCapSeconds, PrevSleep,
              Policy.BackoffJitterSeed,
              Attempt * WorkerAttemptKeyStride + I);
          Policy.Token.sleepFor(PrevSleep);
        }
      }
    }
  } else {
    std::vector<Slot> Slots(N);
    std::atomic<unsigned> Alive{0};
    std::atomic<unsigned> FailedAttempts{0}, Retries{0};
    std::atomic<unsigned> SpecLaunches{0}, SpecWins{0};

    auto tryCommit = [&](size_t I, WorkerOutput &&Out, double Sec) {
      int Expected = 0;
      if (!Slots[I].State.compare_exchange_strong(
              Expected, 1, std::memory_order_acq_rel))
        return false;
      Outputs[I] = std::move(Out);
      R.WorkerSeconds[I] = Sec;
      Slots[I].DurNs.store(static_cast<int64_t>(Sec * 1e9),
                           std::memory_order_relaxed);
      Slots[I].State.store(2, std::memory_order_release);
      return true;
    };

    // Primary and backup bodies share the retry loop; backups skip
    // injection (they model re-execution on a healthy node) and bail as
    // soon as the other copy has committed.
    auto runBody = [&](size_t I, bool IsBackup) {
      double Stall =
          (!IsBackup && FI) ? FI->delayFor(FaultSiteStraggler, I) : 0.0;
      if (!IsBackup)
        Slots[I].StartNs.store(nowNs(), std::memory_order_relaxed);
      if (Stall > 0) {
        // Cancellable stall: wake early once a backup commits or the
        // run token fires — an injected straggler must not outlive a
        // cancelled run.
        int64_t End = nowNs() + static_cast<int64_t>(Stall * 1e9);
        while (nowNs() < End &&
               Slots[I].State.load(std::memory_order_acquire) == 0 &&
               !Policy.Token.cancelled())
          std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      double PrevSleep = Policy.BackoffSeconds;
      for (unsigned Attempt = 0;; ++Attempt) {
        if (Slots[I].State.load(std::memory_order_acquire) != 0)
          return; // the other copy already won.
        if (Policy.Token.cancelled())
          return; // cut: the slot stays uncommitted, nothing merges.
        Stopwatch W;
        try {
          WorkerOutput Out = IsBackup ? Work(I) : attemptOnce(I, Attempt);
          if (tryCommit(I, std::move(Out), W.seconds() + Stall) && IsBackup)
            SpecWins.fetch_add(1, std::memory_order_relaxed);
          return;
        } catch (...) {
          FailedAttempts.fetch_add(1, std::memory_order_relaxed);
          if (Attempt >= Policy.MaxRetries)
            return; // permanent failure; serial refold below.
          Retries.fetch_add(1, std::memory_order_relaxed);
          // Interruptible: a fired token wakes the backoff and the next
          // iteration returns.
          PrevSleep = decorrelatedBackoff(
              Policy.BackoffSeconds, Policy.BackoffCapSeconds, PrevSleep,
              Policy.BackoffJitterSeed,
              Attempt * WorkerAttemptKeyStride + I);
          Policy.Token.sleepFor(PrevSleep);
        }
      }
    };

    for (size_t I = 0; I != N; ++I) {
      Alive.fetch_add(1, std::memory_order_relaxed);
      Pool->submit([&, I] {
        runBody(I, /*IsBackup=*/false);
        Alive.fetch_sub(1, std::memory_order_release);
      });
    }

    if (Policy.Speculate) {
      // Straggler monitor: once enough workers finished, re-execute any
      // still-running worker that exceeds the median by the configured
      // factor. First finisher wins the commit; the loser's result is
      // discarded, so the merged output cannot change.
      while (Alive.load(std::memory_order_acquire) != 0) {
        if (Policy.Token.cancelled())
          break; // stop launching backups; workers are bailing out.
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        std::vector<double> DoneSec;
        for (Slot &S : Slots)
          if (S.State.load(std::memory_order_acquire) == 2)
            DoneSec.push_back(
                S.DurNs.load(std::memory_order_relaxed) / 1e9);
        size_t NeedDone = std::max<size_t>(
            1, static_cast<size_t>(Policy.SpeculationMinCompletedFraction *
                                   static_cast<double>(N)));
        if (DoneSec.size() < NeedDone)
          continue;
        double Threshold =
            std::max(Policy.SpeculationMinSeconds,
                     Policy.SpeculationDelayFactor * medianOf(DoneSec));
        int64_t Now = nowNs();
        for (size_t I = 0; I != N; ++I) {
          Slot &S = Slots[I];
          if (S.State.load(std::memory_order_acquire) != 0)
            continue;
          int64_t St = S.StartNs.load(std::memory_order_relaxed);
          if (St < 0 || (Now - St) / 1e9 < Threshold)
            continue;
          bool Expected = false;
          if (!S.BackupLaunched.compare_exchange_strong(Expected, true))
            continue;
          SpecLaunches.fetch_add(1, std::memory_order_relaxed);
          Alive.fetch_add(1, std::memory_order_relaxed);
          Pool->submit([&, I] {
            runBody(I, /*IsBackup=*/true);
            Alive.fetch_sub(1, std::memory_order_release);
          });
        }
      }
    }
    Pool->wait();
    R.Cancelled = Policy.Token.cancelled();

    // Guaranteed path: segments whose every attempt failed are refolded
    // serially on this thread, injection-free. Real (non-injected)
    // kernel errors propagate from here. A cancelled run must NOT take
    // it — refolding every abandoned segment is exactly the work the
    // cancel asked us not to do.
    for (size_t I = 0; I != N && !R.Cancelled; ++I) {
      if (Slots[I].State.load(std::memory_order_acquire) == 2)
        continue;
      ++R.SerialRefolds;
      Stopwatch W;
      Outputs[I] = Work(I);
      R.WorkerSeconds[I] = W.seconds();
    }
    for (size_t I = 0; I != N; ++I)
      if (Slots[I].State.load(std::memory_order_acquire) == 2)
        ++R.CompletedSegments;
    R.CompletedSegments += R.SerialRefolds;
    R.FailedAttempts = FailedAttempts.load(std::memory_order_relaxed);
    R.Retries = Retries.load(std::memory_order_relaxed);
    R.SpeculativeLaunches = SpecLaunches.load(std::memory_order_relaxed);
    R.SpeculativeWins = SpecWins.load(std::memory_order_relaxed);
  }

  if (R.Cancelled || Policy.Token.cancelled()) {
    // Partial stats only: committing a merge over a mix of computed and
    // default-constructed worker outputs would be a wrong answer.
    R.Cancelled = true;
    R.WallSeconds = Total.seconds();
    return R;
  }

  Stopwatch MergeTimer;
  R.Output = Merge(Outputs);
  R.MergeSeconds = MergeTimer.seconds();
  R.WallSeconds = Total.seconds();
  return R;
}

} // namespace

ParallelRunResult runParallel(const CompiledPlan &Plan,
                              const std::vector<SegmentView> &Segs,
                              ThreadPool *Pool, const RunPolicy &Policy) {
  return runParallelCore(
      Segs.size(), [&](size_t I) { return Plan.runWorker(Segs[I]); },
      [&](std::vector<WorkerOutput> &Outputs) {
        return Plan.merge(Outputs, Segs);
      },
      Pool, Policy);
}

MergeHeads prefetchMergeHeads(const CompiledPlan &Plan,
                              const SegmentSource &Src) {
  const size_t N = Src.chunkCount();
  size_t PrefixLen = Plan.plan().Kind == synth::Scenario::ConstPrefix
                         ? Plan.plan().PrefixLen
                         : 0;
  MergeHeads M;
  M.Heads.resize(N);
  M.Views.resize(N);
  std::unique_ptr<SegmentCursor> C = Src.cursor();
  for (size_t I = 0; I != N; ++I) {
    if (PrefixLen != 0) {
      SegmentView H = C->head(I, PrefixLen);
      M.Heads[I].assign(H.Data, H.Data + H.Size);
    }
    M.Views[I] = {M.Heads[I].data(), Src.chunkElems(I)};
  }
  return M;
}

ParallelRunResult runParallel(const CompiledPlan &Plan,
                              const SegmentSource &Src, ThreadPool *Pool,
                              const RunPolicy &Policy) {
  const MergeHeads Heads = prefetchMergeHeads(Plan, Src);
  return runParallelCore(
      Src.chunkCount(),
      [&](size_t I) {
        // A fresh cursor per attempt: cursors are not thread-safe, and
        // retries/backups may run the same chunk concurrently. The
        // chunk view lives as long as the cursor.
        std::unique_ptr<SegmentCursor> C = Src.cursor();
        return Plan.runWorker(C->chunk(I));
      },
      [&](std::vector<WorkerOutput> &Outputs) {
        return Plan.merge(Outputs, Heads.Views);
      },
      Pool, Policy);
}

int64_t runSerialSourceTimed(const CompiledProgram &Prog,
                             const SegmentSource &Src, double *Seconds) {
  Stopwatch Timer;
  int64_t Out = Prog.runSerialSource(Src);
  if (Seconds)
    *Seconds = Timer.seconds();
  return Out;
}

double makespan(const std::vector<double> &WorkerSeconds, unsigned P) {
  assert(P > 0);
  std::vector<double> Sorted = WorkerSeconds;
  std::sort(Sorted.rbegin(), Sorted.rend());
  std::vector<double> Load(P, 0.0);
  for (double T : Sorted)
    *std::min_element(Load.begin(), Load.end()) += T;
  return *std::max_element(Load.begin(), Load.end());
}

double modeledSpeedup(double SerialSeconds, const ParallelRunResult &R,
                      unsigned P) {
  double Par = makespan(R.WorkerSeconds, P) + R.MergeSeconds;
  return Par > 0 ? SerialSeconds / Par : 0.0;
}

} // namespace runtime
} // namespace grassp
