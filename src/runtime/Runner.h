//===- runtime/Runner.h - Parallel execution and speedup modeling --------===//
//
// Two execution modes:
//
//  * ThreadPool mode — workers run concurrently on real std::threads (the
//    paper's 8-thread POSIX study); used for correctness and on machines
//    with real parallelism.
//  * Measured critical-path mode — workers run one-by-one, each timed;
//    the P-worker makespan is computed by LPT scheduling and the modeled
//    speedup is serial / (makespan + merge). This reproduces the *shape*
//    of the paper's Table-1 speedups on hosts without 8 hardware threads
//    (see DESIGN.md, substitutions).
//
// Fault tolerance: a RunPolicy arms runParallel against failing and
// straggling segment workers. Failed attempts (injected via
// support/FaultInject or real exceptions) are retried with bounded
// exponential backoff; stragglers get a speculative backup copy whose
// first finisher wins; a segment whose every attempt failed is refolded
// serially on the calling thread as a guaranteed last resort. The merged
// output is bit-identical to the fault-free run in every case — workers
// are pure functions of their segment.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_RUNNER_H
#define GRASSP_RUNTIME_RUNNER_H

#include "runtime/Kernels.h"
#include "support/Cancel.h"
#include "support/FaultInject.h"
#include "support/ThreadPool.h"

#include <vector>

namespace grassp {
namespace runtime {

/// Fault sites runParallel consults. The worker site is keyed by
/// Attempt * WorkerAttemptKeyStride + SegmentIndex, so a test can plant
/// "segment 3's first attempt fails" exactly; the straggler site is
/// keyed by the segment index alone (a slow node stays slow). Backup
/// copies and serial refolds never consult the injector — they model
/// re-execution on a healthy node and are the guaranteed path.
inline constexpr const char *FaultSiteWorker = "runner.worker";
inline constexpr const char *FaultSiteStraggler = "runner.straggler";
inline constexpr uint64_t WorkerAttemptKeyStride = 1000003;

/// Fault-tolerance policy for runParallel. The default policy retries
/// but injects nothing, so existing callers behave exactly as before
/// (a worker that never throws never retries).
struct RunPolicy {
  /// Extra attempts granted to a failed segment worker before the
  /// serial-refold fallback.
  unsigned MaxRetries = 2;
  /// Base retry sleep in seconds (0 = immediate). Kept tiny by default:
  /// the simulated cluster pays modeled time, the real thread pool
  /// should not stall tests. The actual sleep before each retry is
  /// decorrelatedBackoff(Base, Cap, Prev, ...) — exponential growth with
  /// decorrelated jitter so correlated faults do not produce
  /// synchronized retry storms.
  double BackoffSeconds = 0.0;
  /// Upper bound on any single backoff sleep.
  double BackoffCapSeconds = 0.25;
  /// Seed for the jitter draw. The draw is a pure function of
  /// (seed, attempt key), never of wall clock or shared RNG state, so a
  /// chaos run replays its exact backoff schedule from its seed.
  uint64_t BackoffJitterSeed = 0;
  /// Launch a backup copy of straggling workers (ThreadPool mode only).
  bool Speculate = false;
  /// A running worker is a straggler once the batch is
  /// SpeculationMinCompletedFraction done and the worker has been
  /// running longer than SpeculationDelayFactor times the median
  /// completed-worker time (floored at SpeculationMinSeconds).
  double SpeculationDelayFactor = 4.0;
  double SpeculationMinCompletedFraction = 0.5;
  double SpeculationMinSeconds = 0.002;
  /// Fault injector consulted at the runner.worker / runner.straggler
  /// sites; null = no injection.
  FaultInjector *Faults = nullptr;
  /// Cooperative cancellation. When it fires, retry backoff and
  /// injected straggler stalls wake immediately, no new attempts or
  /// backups start, and runParallel returns a result with Cancelled set
  /// and NO merged output — a partial merge is never committed. Empty =
  /// never cancels (legacy behavior).
  CancelToken Token;
};

struct ParallelRunResult {
  int64_t Output = 0;
  /// The run was cut short by Policy.Token: Output is NOT valid (the
  /// merge was skipped rather than committed partially); WorkerSeconds
  /// and the accounting below still describe the work that did finish.
  bool Cancelled = false;
  /// Segments whose worker output was committed before the cut; equals
  /// Segs.size() on a completed run.
  unsigned CompletedSegments = 0;
  double WallSeconds = 0;               // end-to-end wall time.
  std::vector<double> WorkerSeconds;    // per-segment compute time.
  double MergeSeconds = 0;
  // Fault-tolerance accounting.
  unsigned FailedAttempts = 0;     // worker attempts that threw.
  unsigned Retries = 0;            // re-attempts scheduled after failures.
  unsigned SpeculativeLaunches = 0;// backup copies launched.
  unsigned SpeculativeWins = 0;    // backups that beat their primary.
  unsigned SerialRefolds = 0;      // segments recovered on the caller.
};

/// Decorrelated-jitter backoff (the AWS "decorrelated jitter" scheme):
/// the next sleep is drawn uniformly from [Base, 3 * Prev] and capped at
/// \p Cap, where \p Prev is the previous sleep (pass Base before the
/// first retry). The draw is a pure hash of (Seed, Key) — bit-exact
/// replay from the seed, and distinct keys (segments, attempts, workers)
/// decorrelate even when their faults were perfectly correlated.
/// Returns 0 when Base <= 0 (backoff disabled).
double decorrelatedBackoff(double Base, double Cap, double Prev,
                           uint64_t Seed, uint64_t Key);

/// Serial run over \p Segs; wall time in \p Seconds (optional).
int64_t runSerialTimed(const CompiledProgram &Prog,
                       const std::vector<SegmentView> &Segs,
                       double *Seconds = nullptr);

/// Parallel run. With \p Pool the workers execute concurrently; without,
/// they run sequentially but are timed individually (critical-path mode).
/// \p Policy governs retries, speculation, and fault injection.
ParallelRunResult runParallel(const CompiledPlan &Plan,
                              const std::vector<SegmentView> &Segs,
                              ThreadPool *Pool = nullptr,
                              const RunPolicy &Policy = RunPolicy());

/// Out-of-core parallel run: one worker per source chunk, each holding
/// one chunk resident via its own cursor. Shares the exact retry /
/// speculation / refold / cancellation core with the in-memory overload
/// and is bit-identical to it on the same element stream (constant-
/// prefix repair heads are prefetched; whole chunks never are).
ParallelRunResult runParallel(const CompiledPlan &Plan,
                              const SegmentSource &Src,
                              ThreadPool *Pool = nullptr,
                              const RunPolicy &Policy = RunPolicy());

/// The segments merge() reads for a source's chunks, with no chunk held
/// resident: constant-prefix repair reads min(PrefixLen, Size) elements
/// per segment, so each view carries the TRUE chunk size but only the
/// prefetched head's data (the documented merge() contract). Shared by
/// every out-of-core runner; Views point into Heads.
struct MergeHeads {
  std::vector<std::vector<int64_t>> Heads;
  std::vector<SegmentView> Views;
};
MergeHeads prefetchMergeHeads(const CompiledPlan &Plan,
                              const SegmentSource &Src);

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
