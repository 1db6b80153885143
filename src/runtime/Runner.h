//===- runtime/Runner.h - Parallel execution and speedup modeling --------===//
//
// Two execution modes:
//
//  * ThreadPool mode — workers run concurrently on real std::threads (the
//    paper's 8-thread POSIX study).
//  * Measured critical-path mode — workers run one-by-one, each timed;
//    the modeled speedup is serial / (LPT makespan on P workers + merge),
//    the *shape* of the paper's Table-1 speedups on hosts without 8
//    hardware threads (see DESIGN.md, substitutions).
//
// Fault tolerance: both modes execute runtime/ShardScheduler's decisions
// under a RunPolicy, like the process executor dist::DistCoordinator:
// retries behind a backoff gate, speculative backups for stragglers, and
// the serial refold as the last resort. Workers are pure functions of
// their segment, so the merged output is bit-identical in every case.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_RUNNER_H
#define GRASSP_RUNTIME_RUNNER_H

#include "runtime/Kernels.h"
#include "runtime/ShardScheduler.h"
#include "support/ThreadPool.h"

#include <vector>

namespace grassp {
namespace runtime {

struct ParallelRunResult : RecoveryCounters {
  int64_t Output = 0;
  /// The run was cut short by Policy.Token: Output is NOT valid (the
  /// merge was skipped rather than committed partially); WorkerSeconds
  /// and the counters still describe the work that did finish.
  bool Cancelled = false;
  /// Segments whose worker output was committed before the cut; equals
  /// Segs.size() on a completed run.
  unsigned CompletedSegments = 0;
  double WallSeconds = 0;               // end-to-end wall time.
  std::vector<double> WorkerSeconds;    // per-segment compute time.
  double MergeSeconds = 0;
};

/// Serial run over \p Segs; wall time in \p Seconds (optional).
int64_t runSerialTimed(const CompiledProgram &Prog,
                       const std::vector<SegmentView> &Segs,
                       double *Seconds = nullptr);

/// Parallel run. With \p Pool the workers execute concurrently; without,
/// they run sequentially but are timed individually (critical-path mode,
/// where injected stalls are modeled, not slept). \p Policy governs
/// retries, speculation, and fault injection; attempt keys carry the
/// injector's next run index (FaultInjector::nextRun).
ParallelRunResult runParallel(const CompiledPlan &Plan,
                              const std::vector<SegmentView> &Segs,
                              ThreadPool *Pool = nullptr,
                              const RunPolicy &Policy = RunPolicy());

/// Out-of-core parallel run: one worker per source chunk, each holding
/// one chunk resident via its own cursor. Runs on the same scheduler as
/// the in-memory overload and is bit-identical to it on the same element
/// stream.
ParallelRunResult runParallel(const CompiledPlan &Plan,
                              const SegmentSource &Src,
                              ThreadPool *Pool = nullptr,
                              const RunPolicy &Policy = RunPolicy());

/// Serial out-of-core run over \p Src; wall time in \p Seconds.
int64_t runSerialSourceTimed(const CompiledProgram &Prog,
                             const SegmentSource &Src,
                             double *Seconds = nullptr);

/// LPT makespan of \p WorkerSeconds on \p P identical workers.
double makespan(const std::vector<double> &WorkerSeconds, unsigned P);

/// Modeled speedup: SerialSeconds / (makespan(P) + MergeSeconds).
double modeledSpeedup(double SerialSeconds, const ParallelRunResult &R,
                      unsigned P);

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_RUNNER_H
