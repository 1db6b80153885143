//===- runtime/Runner.cpp --------------------------------------------------=//

#include "runtime/Runner.h"

#include "runtime/SegmentSource.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace grassp {
namespace runtime {

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

using Attempt = ShardScheduler::Attempt;
using Step = ShardScheduler::Step;

/// One attempt's report to the thread that owns the scheduler.
struct AttemptEvent {
  enum Kind { Started, Completed, Failed, Lost } K;
  Attempt A;
  WorkerOutput Out;
  double Seconds = 0;
};

/// The owning thread's inbox. Posters notify while holding the lock:
/// the inbox lives on the owner's stack and may be gone the moment the
/// last event is taken.
struct Inbox {
  std::mutex M;
  std::condition_variable Cv;
  std::vector<AttemptEvent> Events;

  void post(AttemptEvent::Kind K, const Attempt &A, WorkerOutput Out = {},
            double Seconds = 0) {
    std::lock_guard<std::mutex> L(M);
    Events.push_back({K, A, std::move(Out), Seconds});
    Cv.notify_one();
  }
  /// Every pending event, once one arrives or \p UntilNs passes (an
  /// hour at most, so INT64_MAX means "until an event").
  std::vector<AttemptEvent> take(int64_t UntilNs) {
    std::unique_lock<std::mutex> L(M);
    Cv.wait_for(L,
                std::chrono::nanoseconds(std::min<int64_t>(
                    UntilNs - steadyNowNs(), int64_t{3600} * 1000000000)),
                [&] { return !Events.empty(); });
    return std::exchange(Events, {});
  }
};

/// runParallel of \p Plan over \p Elems.size() segments: \p Work folds
/// one segment (a pure function of its index, callable concurrently)
/// and Plan.merge combines the committed outputs; both entry points are
/// thin wrappers.
///
/// With \p Pool, attempts run on pool threads that only fold and post
/// events: the scheduler, outputs and timings are touched by this thread
/// alone, and it returns only after every submitted attempt has
/// reported, losers included, because attempts reference this frame.
/// Without a pool, each attempt runs to the end inside its deal, and an
/// injected stall is added to its recorded time instead of slept
/// (critical-path mode), so no backup is ever due. Serial refolds run
/// last, once nothing is in flight, so a real kernel error they raise
/// propagates with no attempt left referencing this frame.
ParallelRunResult
runParallelCore(const CompiledPlan &Plan, std::vector<uint64_t> Elems,
                const std::function<WorkerOutput(size_t)> &Work,
                ThreadPool *Pool, const RunPolicy &Policy) {
  ParallelRunResult R;
  Stopwatch Total;
  std::vector<WorkerOutput> Outputs(Elems.size());
  R.WorkerSeconds.assign(Elems.size(), 0.0);
  FaultInjector *FI = Policy.Faults;
  ShardScheduler Sched(Policy, std::move(Elems), FI ? FI->nextRun() : 0);
  Inbox Box;
  // Set once a shard commits, so its straggling copy stops stalling.
  std::vector<std::atomic<bool>> Committed(Outputs.size());
  auto settled = [&](const Attempt &A) {
    return Committed[A.Shard].load(std::memory_order_acquire) ||
           Policy.Token.cancelled();
  };
  auto body = [&](const Attempt &A) {
    Box.post(AttemptEvent::Started, A);
    // Injection hits primaries only; the stall ends early once the other
    // copy commits or the token fires.
    double Stall = FI && !A.Backup ? FI->delayFor(FaultSiteStraggler, A.Key)
                                   : 0.0;
    const int64_t End = steadyNowNs() + static_cast<int64_t>(Stall * 1e9);
    while (Pool && steadyNowNs() < End && !settled(A))
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (settled(A))
      return Box.post(AttemptEvent::Lost, A);
    Stopwatch W;
    try {
      if (FI && !A.Backup)
        FI->maybeThrow(FaultSiteWorker, A.Key);
      WorkerOutput Out = Work(A.Shard);
      Box.post(AttemptEvent::Completed, A, std::move(Out),
               W.seconds() + Stall);
    } catch (...) {
      Box.post(AttemptEvent::Failed, A);
    }
  };
  // A task the pool discards unrun (its token fired) reports Lost; the
  // lost attempts count, so a shedding pool ends in serial refolds.
  struct Guard {
    Inbox &Box;
    Attempt A;
    bool Ran = false;
    ~Guard() {
      if (!Ran)
        Box.post(AttemptEvent::Lost, A);
    }
  };

  size_t InFlight = 0;
  std::vector<size_t> Refolds;
  for (;;) {
    ShardScheduler::Decision D =
        Sched.next(steadyNowNs(), {/*Deal=*/true, /*Backup=*/Pool != nullptr});
    switch (D.S) {
    case Step::Deal:
    case Step::Backup:
      ++InFlight;
      if (!Pool) {
        body(D.A);
      } else {
        std::shared_ptr<Guard> G(new Guard{Box, D.A});
        Pool->submit([G = std::move(G), &body] {
          G->Ran = true;
          body(G->A);
        });
      }
      continue;
    case Step::Refold:
      Refolds.push_back(D.A.Shard);
      continue;
    case Step::Wait:
      break;
    case Step::Merge:
    case Step::Cancel:
      if (InFlight == 0) {
        static_cast<RecoveryCounters &>(R) = Sched.counters();
        R.CompletedSegments = static_cast<unsigned>(Sched.done());
        // A merge over a mix of computed and default worker outputs
        // would be a wrong answer; a cut run skips its refolds too.
        R.Cancelled = D.S == Step::Cancel;
        if (R.Cancelled) {
          R.CompletedSegments -= static_cast<unsigned>(Refolds.size());
          R.SerialRefolds -= static_cast<unsigned>(Refolds.size());
        } else {
          for (size_t I : Refolds) {
            Stopwatch W;
            Outputs[I] = Work(I);
            R.WorkerSeconds[I] = W.seconds();
          }
          Stopwatch MergeTimer;
          R.Output = Plan.merge(Outputs);
          R.MergeSeconds = MergeTimer.seconds();
        }
        R.WallSeconds = Total.seconds();
        return R;
      }
      break;
    }
    std::vector<AttemptEvent> Events =
        Box.take(D.S == Step::Wait ? D.UntilNs : INT64_MAX);
    const int64_t Now = steadyNowNs();
    for (AttemptEvent &E : Events) {
      switch (E.K) {
      case AttemptEvent::Started:
        Sched.started(E.A, Now);
        continue;
      case AttemptEvent::Completed:
        if (Sched.completed(E.A)) {
          Outputs[E.A.Shard] = std::move(E.Out);
          R.WorkerSeconds[E.A.Shard] = E.Seconds;
          Committed[E.A.Shard].store(true, std::memory_order_release);
        }
        break;
      case AttemptEvent::Failed:
        Sched.failed(E.A, Now);
        break;
      case AttemptEvent::Lost:
        Sched.lost(E.A, Now);
        break;
      }
      --InFlight;
    }
  }
}

} // namespace

ParallelRunResult runParallel(const CompiledPlan &Plan,
                              const std::vector<SegmentView> &Segs,
                              ThreadPool *Pool, const RunPolicy &Policy) {
  std::vector<uint64_t> Elems(Segs.size());
  for (size_t I = 0; I != Segs.size(); ++I)
    Elems[I] = Segs[I].Size;
  return runParallelCore(
      Plan, std::move(Elems),
      [&](size_t I) { return Plan.runWorker(Segs[I]); }, Pool, Policy);
}

ParallelRunResult runParallel(const CompiledPlan &Plan,
                              const SegmentSource &Src, ThreadPool *Pool,
                              const RunPolicy &Policy) {
  std::vector<uint64_t> Elems(Src.chunkCount());
  for (size_t I = 0; I != Elems.size(); ++I)
    Elems[I] = Src.chunkElems(I);
  return runParallelCore(
      Plan, std::move(Elems),
      [&](size_t I) {
        // A fresh cursor per attempt: cursors are not thread-safe, and
        // retries/backups may run the same chunk concurrently. The
        // chunk view lives as long as the cursor.
        std::unique_ptr<SegmentCursor> C = Src.cursor();
        return Plan.runWorker(C->chunk(I));
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
