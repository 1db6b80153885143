//===- bench/bench_parallel_cpp.cpp - Table 1 (right): C++ speedups -------==//
//
// Regenerates the "Parallel code performance" columns of Table 1: per
// benchmark, the workload size, the serial time of the compiled kernels,
// and the speedup of the synthesized parallel plan. On this host the
// speedup is *modeled* from measured per-worker times via critical-path
// (LPT) scheduling with P=8 workers (see DESIGN.md substitutions). Next
// to it, the measured speedup: the same plan folded by runParallel on a
// ThreadPool with one thread per hardware thread (T in the header), best
// of three runs.
//
// Usage: bench_parallel_cpp [elements-per-benchmark]   (default 8e6)
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "runtime/Runner.h"
#include "support/Args.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"
#include "synth/Grassp.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace grassp;
using namespace grassp::runtime;

int main(int argc, char **argv) {
  size_t N = 8000000;
  if (argc > 1 && !parseSize(argv[1], &N)) {
    std::fprintf(stderr, "usage: %s [elements-per-benchmark]  (got '%s')\n",
                 argv[0], argv[1]);
    return 2;
  }
  const unsigned P = 8;          // the paper's 8-thread configuration
  const unsigned SegmentsPerRun = 8;
  const unsigned T = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool Pool(T);

  std::printf("Table 1 (runtime): parallel C++ performance, N=%zu "
              "elements, P=%u modeled workers, T=%u pool threads\n",
              N, P, T);
  std::printf("%-22s %-6s %-10s %-10s %-9s %-10s %-9s\n", "benchmark",
              "group", "serial", "parallel*", "speedup*", "pool(T)",
              "speedup");
  std::printf("%s\n", std::string(82, '-').c_str());

  bool AllMatch = true;
  for (const lang::SerialProgram &Prog : lang::allBenchmarks()) {
    synth::SynthesisResult R = synth::synthesize(Prog);
    if (!R.Success) {
      std::printf("%-22s synthesis failed\n", Prog.Name.c_str());
      AllMatch = false;
      continue;
    }
    std::vector<int64_t> Data = generateWorkload(Prog, N, 0xbeef);
    std::vector<SegmentView> Segs = partition(Data, SegmentsPerRun);

    CompiledProgram CP(Prog);
    CompiledPlan Plan(Prog, R.Plan);

    double SerialSec = 0;
    int64_t SerialOut = runSerialTimed(CP, Segs, &SerialSec);
    ParallelRunResult PR = runParallel(Plan, Segs, /*Pool=*/nullptr);
    double Speedup = modeledSpeedup(SerialSec, PR, P);
    double ModeledPar = makespan(PR.WorkerSeconds, P) + PR.MergeSeconds;

    bool Match = PR.Output == SerialOut;
    double PoolSec = 1e9;
    for (int Rep = 0; Rep != 3; ++Rep) {
      ParallelRunResult PT = runParallel(Plan, Segs, &Pool);
      Match &= PT.Output == SerialOut;
      PoolSec = std::min(PoolSec, PT.WallSeconds);
    }
    AllMatch &= Match;
    std::printf("%-22s %-6s %-10s %-10s %6.1fX   %-10s %6.1fX%s\n",
                Prog.Name.c_str(), R.Group.c_str(),
                formatSeconds(SerialSec).c_str(),
                formatSeconds(ModeledPar).c_str(), Speedup,
                formatSeconds(PoolSec).c_str(), SerialSec / PoolSec,
                Match ? "" : "  OUTPUT MISMATCH");
  }
  std::printf("%s\n", std::string(82, '-').c_str());
  std::printf("* modeled: LPT makespan of measured per-worker times on "
              "%u workers + merge\n(paper: 3.6X-5.1X on 8 threads / 2 "
              "physical cores, 14.5X for counting distinct)\n"
              "pool(T): measured runParallel wall time on %u threads, best "
              "of 3\n",
              P, T);
  return AllMatch ? 0 : 1;
}
