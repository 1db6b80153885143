//===- testing/Fuzz.h - Differential fuzzing over the benchmark suite ----===//
//
// Drives DiffOracle over each benchmark's synthesized plan with (a)
// seeded random workloads across a size ladder and (b) the adversarial
// segment shapes of runtime::adversarialShapes — empty segments,
// length-1 segments, all data in one segment, more segments than
// elements — plus marker-planting at segment edges for alphabet
// programs, where conditional prefixes start and end.
//
// Two modes: a bounded fixed sweep (Seconds == 0, the ctest fuzz_smoke
// configuration — fixed seeds, deterministic, a few seconds) and an
// open-ended soak (Seconds > 0: the fixed sweep first, then fresh
// random rounds until the budget runs out). Both report the first
// divergence with a minimized reproducer.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_TESTING_FUZZ_H
#define GRASSP_TESTING_FUZZ_H

#include "lang/Program.h"
#include "support/Cancel.h"
#include "synth/ParallelDriver.h"
#include "synth/ParallelPlan.h"
#include "testing/DiffOracle.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grassp {
namespace testing {

struct FuzzOptions {
  uint64_t Seed = 1;
  /// 0 = one deterministic sweep; N = sweep plus random rounds for ~N
  /// seconds of wall-clock budget.
  unsigned Seconds = 0;
  /// Baseline segment count M for the adversarial shapes.
  unsigned Segments = 4;
  bool UseEmitted = true;
  /// Workload sizes; empty picks the default ladder
  /// {0, 1, 2, 3, 5, 17, 64, 257}.
  std::vector<size_t> Sizes;
  /// Oracle re-check budget for reproducer minimization.
  unsigned MaxMinimizeChecks = 200;
  /// Chaos mode: arm a seeded fault injector on the plan+pool path
  /// (worker failures + stragglers) and check the fault-tolerant run is
  /// still bit-identical to every other path.
  bool Chaos = false;
  /// Seed for the chaos injector (independent of the workload Seed so
  /// the same workloads can be replayed with different fault patterns).
  uint64_t ChaosSeed = 7;
  /// Chance in permille that one worker attempt fails (runner.worker).
  unsigned ChaosFailPermille = 200;
  /// Chance in permille that a segment straggles (runner.straggler),
  /// and the modeled stall it suffers.
  unsigned ChaosStragglerPermille = 60;
  double ChaosStragglerSec = 0.004;
  /// Distributed mode: run every check through the real multi-process
  /// runtime as an extra oracle path. With Chaos also set, the dist.*
  /// sites are armed too, so worker PROCESSES really _exit(137),
  /// SIGKILL themselves, hang, and corrupt reply frames mid-sweep —
  /// while every output must stay bit-identical.
  bool Dist = false;
  unsigned DistWorkers = 4;
  unsigned DistKillPermille = 30;    // dist.worker.kill (raise SIGKILL)
  unsigned DistExitPermille = 30;    // dist.worker.exit (_exit 137)
  unsigned DistHangPermille = 4;     // dist.worker.hang (go silent)
  unsigned DistCorruptPermille = 20; // dist.frame.corrupt (flip a byte)
  /// Cooperative cancellation (Ctrl-C): sweeps stop between oracle
  /// checks, chaos runs abandon their partial merges, and fuzzMain
  /// prints a clean summary of what completed and exits 130/143.
  CancelToken Token;
};

struct FuzzReport {
  bool Diverged = false;
  /// The sweep was cut short by Opts.Token; counters cover the checks
  /// that did run, and Diverged is still trustworthy for them.
  bool Cancelled = false;
  std::string Benchmark;
  std::string Shape;  // shape name (suffix "+markers" for the variant).
  std::string Detail; // per-path values from the oracle.
  SegmentedInput Reproducer; // minimized.
  uint64_t Seed = 0;  // workload seed of the diverging round.
  unsigned long Checks = 0;
  unsigned PathsCompared = 0;
  /// Chaos mode only: faults actually fired and the recovery activity
  /// the runner reported while every check stayed bit-identical.
  uint64_t FaultFires = 0;
  runtime::RecoveryCounters Faults;
  /// Dist mode only: the distributed runtime's real recovery activity.
  runtime::RecoveryCounters Dist;
};

/// Fuzzes one benchmark/plan pair; stops at the first divergence.
FuzzReport fuzzBenchmark(const lang::SerialProgram &Prog,
                         const synth::ParallelPlan &Plan,
                         const FuzzOptions &Opts);

/// The `grassp fuzz` entry point: synthesizes the requested benchmarks
/// (all 27 when \p Names is empty) on the parallel driver, fuzzes each,
/// prints a per-benchmark table plus any minimized reproducer, and
/// returns a process exit code (0 = no divergence).
int fuzzMain(const std::vector<std::string> &Names, const FuzzOptions &Opts,
             const synth::DriverOptions &DriverOpts);

} // namespace testing
} // namespace grassp

#endif // GRASSP_TESTING_FUZZ_H
