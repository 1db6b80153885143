//===- testing/Fuzz.cpp ---------------------------------------------------==//

#include "testing/Fuzz.h"

#include "dist/Worker.h"
#include "lang/Benchmarks.h"
#include "runtime/Runner.h"
#include "runtime/Workload.h"
#include "support/FaultInject.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>

namespace grassp {
namespace testing {

namespace {

/// Carves flat \p Data into owned segments with lengths \p Lens.
SegmentedInput carve(const std::vector<int64_t> &Data,
                     const std::vector<size_t> &Lens) {
  SegmentedInput Segs;
  Segs.reserve(Lens.size());
  size_t Off = 0;
  for (size_t L : Lens) {
    Segs.emplace_back(Data.begin() + Off, Data.begin() + Off + L);
    Off += L;
  }
  return Segs;
}

/// Golden-ratio increment decorrelates per-round seeds (SplitMix64's own
/// stream constant).
constexpr uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;

} // namespace

FuzzReport fuzzBenchmark(const lang::SerialProgram &Prog,
                         const synth::ParallelPlan &Plan,
                         const FuzzOptions &Opts) {
  FuzzReport R;
  R.Benchmark = Prog.Name;

  OracleConfig OC;
  OC.UseEmitted = Opts.UseEmitted;
  FaultInjector Injector(Opts.ChaosSeed);
  if (Opts.Chaos) {
    FaultSpec Worker;
    Worker.Probability = Opts.ChaosFailPermille / 1000.0;
    Injector.arm(runtime::FaultSiteWorker, Worker);
    FaultSpec Straggler;
    Straggler.Probability = Opts.ChaosStragglerPermille / 1000.0;
    Straggler.DelaySeconds = Opts.ChaosStragglerSec;
    Injector.arm(runtime::FaultSiteStraggler, Straggler);
    // A deadline under the injected stall: stragglers race a backup.
    OC.Policy.TaskDeadlineSeconds = Opts.ChaosStragglerSec / 2;
    OC.Policy.Faults = &Injector;
  }
  if (Opts.Dist) {
    OC.UseDist = true;
    OC.Dist.Workers = Opts.DistWorkers ? Opts.DistWorkers : 1;
    // Tight deadlines keep injected hangs cheap: backup at 40ms, kill
    // at 80ms, so a silent worker costs one beat of wall clock, not a
    // stuck sweep.
    OC.Dist.TaskDeadlineSeconds = 0.04;
    OC.Dist.BackoffJitterSeed = Opts.ChaosSeed;
    // Chaos kills churn through many processes; the respawn budget must
    // not degrade the whole sweep to serial refolds.
    OC.Dist.MaxWorkerRestarts = 100000;
    OC.Dist.Token = Opts.Token;
    if (Opts.Chaos) {
      OC.Dist.Faults = &Injector;
      FaultSpec Kill;
      Kill.Probability = Opts.DistKillPermille / 1000.0;
      Injector.arm(dist::SiteWorkerKill, Kill);
      FaultSpec Exit;
      Exit.Probability = Opts.DistExitPermille / 1000.0;
      Injector.arm(dist::SiteWorkerExit, Exit);
      FaultSpec Hang;
      Hang.Probability = Opts.DistHangPermille / 1000.0;
      Injector.arm(dist::SiteWorkerHang, Hang);
      FaultSpec Corrupt;
      Corrupt.Probability = Opts.DistCorruptPermille / 1000.0;
      Injector.arm(dist::SiteFrameCorrupt, Corrupt);
    }
  }
  // Interruptible runs: a fired token wakes injected stragglers and
  // retry backoffs instead of letting them pin pool workers.
  OC.Policy.Token = Opts.Token;
  DiffOracle Oracle(Prog, Plan, OC);
  R.PathsCompared = Oracle.numPaths();

  std::vector<size_t> Sizes = Opts.Sizes;
  if (Sizes.empty())
    Sizes = {0, 1, 2, 3, 5, 17, 64, 257};

  auto tryInput = [&](const std::vector<int64_t> &Data,
                      const std::vector<size_t> &Lens,
                      const std::string &ShapeName, uint64_t Seed) {
    SegmentedInput Segs = carve(Data, Lens);
    OracleVerdict V = Oracle.check(Segs);
    if (!V.Diverged)
      return false;
    R.Diverged = true;
    R.Shape = ShapeName;
    R.Detail = V.Detail;
    R.Seed = Seed;
    R.Reproducer = Oracle.minimize(std::move(Segs), Opts.MaxMinimizeChecks);
    OracleVerdict MV = Oracle.check(R.Reproducer);
    if (MV.Diverged) // refresh the per-path values for the shrunk input.
      R.Detail = MV.Detail;
    return true;
  };

  // One full deterministic sweep for a given workload seed: every size,
  // every adversarial shape, plus the marker-planted variant for
  // alphabet programs.
  auto sweep = [&](uint64_t Seed) {
    for (size_t N : Sizes) {
      if (Opts.Token.cancelled()) {
        R.Cancelled = true;
        return false;
      }
      std::vector<int64_t> Data = runtime::generateWorkload(Prog, N, Seed);
      std::vector<runtime::SegmentShape> Shapes =
          runtime::adversarialShapes(N, Opts.Segments);
      if (N <= 8) {
        // Explicit M > N shapes: more segments than elements.
        for (runtime::SegmentShape &S :
             runtime::adversarialShapes(N, static_cast<unsigned>(N) + 3)) {
          S.Name += "/M>N";
          Shapes.push_back(std::move(S));
        }
      }
      for (const runtime::SegmentShape &Shape : Shapes) {
        if (Opts.Token.cancelled()) {
          R.Cancelled = true;
          return false;
        }
        if (tryInput(Data, Shape.Lens, Shape.Name, Seed))
          return true;
        if (!Prog.InputAlphabet.empty() && N != 0) {
          // Plant alphabet symbols (the boundary markers conditional
          // prefixes key on) at the first and last slot of every
          // non-empty segment.
          std::vector<int64_t> Marked = Data;
          size_t Rot = 0, Off = 0;
          for (size_t L : Shape.Lens) {
            if (L != 0) {
              Marked[Off] =
                  Prog.InputAlphabet[Rot++ % Prog.InputAlphabet.size()];
              Marked[Off + L - 1] =
                  Prog.InputAlphabet[Rot++ % Prog.InputAlphabet.size()];
            }
            Off += L;
          }
          if (tryInput(Marked, Shape.Lens, Shape.Name + "+markers", Seed))
            return true;
        }
      }
    }
    return false;
  };

  Stopwatch T;
  bool Found = sweep(Opts.Seed);
  for (uint64_t Round = 1; !Found && !R.Cancelled && Opts.Seconds != 0 &&
                           T.seconds() < static_cast<double>(Opts.Seconds);
       ++Round)
    Found = sweep(Opts.Seed + Round * kSeedStride);

  R.Checks = Oracle.checksRun();
  // Dist fault fires happen in the forked WORKERS (their injector copy),
  // so the parent's fire counters never see them; the honest measure is
  // the coordinator's waitpid-verified recovery stats below.
  R.FaultFires = Injector.totalFires();
  R.Faults = Oracle.faultStats();
  R.Dist = Oracle.distStats();
  return R;
}

int fuzzMain(const std::vector<std::string> &Names, const FuzzOptions &Opts,
             const synth::DriverOptions &DriverOpts) {
  std::vector<const lang::SerialProgram *> Progs;
  if (Names.empty()) {
    for (const lang::SerialProgram &P : lang::allBenchmarks())
      Progs.push_back(&P);
  } else {
    for (const std::string &N : Names) {
      const lang::SerialProgram *P = lang::findBenchmark(N);
      if (!P) {
        std::fprintf(stderr, "error: unknown benchmark '%s'\n", N.c_str());
        return 2;
      }
      Progs.push_back(P);
    }
  }

  std::printf("fuzz: synthesizing %zu plan(s), all-tier oracle%s...\n",
              Progs.size(),
              Opts.UseEmitted && DiffOracle::hostCompilerAvailable()
                  ? " (emitted C++ enabled)"
                  : "");
  if (Opts.Chaos)
    std::printf("fuzz: chaos mode armed (seed %llu, worker-fail %u/1000, "
                "straggler %u/1000 @ %.1fms)\n",
                (unsigned long long)Opts.ChaosSeed, Opts.ChaosFailPermille,
                Opts.ChaosStragglerPermille, Opts.ChaosStragglerSec * 1e3);
  if (Opts.Dist)
    std::printf("fuzz: dist mode armed (%u worker processes%s)\n",
                Opts.DistWorkers,
                Opts.Chaos ? "; REAL faults: kill/exit/hang/corrupt-frame"
                           : "");
  synth::ParallelDriver Driver(DriverOpts);
  std::vector<synth::TaskResult> Results = Driver.run(Progs);

  // The --seconds budget is the whole run's; split it evenly across the
  // benchmarks (each still gets at least its deterministic sweep).
  FuzzOptions PerBench = Opts;
  if (Opts.Seconds != 0)
    PerBench.Seconds = std::max<unsigned>(
        1, Opts.Seconds / static_cast<unsigned>(Progs.size()));

  std::printf("%-22s %-6s %-7s %-8s %s\n", "benchmark", "group", "paths",
              "checks", "verdict");
  bool AnyDivergence = false;
  bool Interrupted = false;
  unsigned Fuzzed = 0;
  uint64_t TotalFires = 0;
  runtime::RecoveryCounters Faults, Dist;
  for (size_t I = 0; I != Progs.size(); ++I) {
    if (Opts.Token.cancelled()) {
      Interrupted = true;
      break;
    }
    if (Results[I].Status == synth::TaskStatus::Cancelled) {
      Interrupted = true;
      std::printf("%-22s %-6s synthesis cancelled\n",
                  Progs[I]->Name.c_str(), "-");
      continue;
    }
    if (!Results[I].Result.Success) {
      std::printf("%-22s %-6s synthesis failed: %s\n",
                  Progs[I]->Name.c_str(), "-",
                  Results[I].Result.FailureReason.c_str());
      continue;
    }
    FuzzReport R = fuzzBenchmark(*Progs[I], Results[I].Result.Plan, PerBench);
    if (R.Cancelled)
      Interrupted = true;
    else
      ++Fuzzed;
    TotalFires += R.FaultFires;
    Faults += R.Faults;
    Dist += R.Dist;
    if (!R.Diverged) {
      if (Opts.Chaos)
        std::printf("%-22s %-6s %-7u %-8lu ok (faults=%llu retries=%u "
                    "refolds=%u spec=%u)\n",
                    R.Benchmark.c_str(), Results[I].Result.Group.c_str(),
                    R.PathsCompared, R.Checks,
                    (unsigned long long)R.FaultFires, R.Faults.Retries,
                    R.Faults.SerialRefolds, R.Faults.SpeculativeLaunches);
      else
        std::printf("%-22s %-6s %-7u %-8lu ok\n", R.Benchmark.c_str(),
                    Results[I].Result.Group.c_str(), R.PathsCompared,
                    R.Checks);
      continue;
    }
    AnyDivergence = true;
    std::printf("%-22s %-6s %-7u %-8lu DIVERGED\n", R.Benchmark.c_str(),
                Results[I].Result.Group.c_str(), R.PathsCompared, R.Checks);
    std::printf("  shape: %s (seed %llu)\n  %s\n  minimized reproducer: %s\n",
                R.Shape.c_str(), (unsigned long long)R.Seed,
                R.Detail.c_str(),
                DiffOracle::formatInput(R.Reproducer).c_str());
  }
  std::printf("fuzzed %u/%zu benchmark(s): %s%s\n", Fuzzed, Progs.size(),
              AnyDivergence ? "DIVERGENCE FOUND" : "no divergences",
              Interrupted ? " (interrupted; summary covers completed "
                            "checks only)"
                          : "");
  if (Opts.Chaos)
    std::printf("chaos: %llu fault(s) injected, %u retried, %u refolded "
                "serially, %u speculative backup(s); outputs stayed "
                "bit-identical\n",
                (unsigned long long)TotalFires, Faults.Retries,
                Faults.SerialRefolds, Faults.SpeculativeLaunches);
  if (Opts.Dist)
    std::printf("dist: %u run(s); %u worker(s) killed (WIFSIGNALED), "
                "%u crashed/exited, %u restarted; %u shard(s) "
                "reassigned, %u/%u speculative win(s), %u corrupt "
                "frame(s) caught, %u hang(s) detected, %u serial "
                "refold(s)%s\n",
                Dist.Runs, Dist.WorkersKilled, Dist.WorkersExited,
                Dist.WorkersRestarted, Dist.ShardsReassigned,
                Dist.SpeculativeWins, Dist.SpeculativeLaunches,
                Dist.CorruptFrames, Dist.HangsDetected, Dist.SerialRefolds,
                AnyDivergence ? "" : "; outputs stayed bit-identical");
  if (AnyDivergence)
    return 1;
  if (Interrupted) {
    int Sig = signalExitCode();
    return Sig != 0 ? Sig : 130;
  }
  return Fuzzed == Progs.size() ? 0 : 1;
}

} // namespace testing
} // namespace grassp
