//===- bench/bench_dist.cpp - Real dist runtime vs Cluster prediction -----==//
//
// The predicted-vs-measured cross-check for the multi-process runtime
// (src/dist/): each job's shards are first timed serially through the
// compiled worker kernel and fed to the mapreduce::Cluster scheduler
// (locality-aware LPT with every fixed Hadoop overhead zeroed — the
// pure compute-makespan prediction for W single-slot nodes), then the
// SAME shards run for real on the DistCoordinator's forked workers.
// The table prints both next to each other; the measured/predicted
// ratio is the true cost of fork+socket shipping, the Hello handshake,
// and the coordinator event loop that the simulator does not model.
//
// Shards reach the workers as descriptors into sealed memfd stripes
// holding one copy of the input (dist/Shm.h), so the bytes-per-element
// column shows the socket carrying O(1) bytes per shard, not the
// elements. The publish column is the part of the warm run spent
// writing and sealing those stripes.
//
// Usage: bench_dist [elements] [--workers W] [--shards S]
//                   [--kill-permille K] [--exit-permille K]
//                   [--fault-seed S] [--reps R] [--json FILE]
//        (default 4e6 elements, 4 workers, 16 shards, healthy pool)
//
// --json FILE appends a machine-readable report (the BENCH_dist.json
// artifact scripts/bench_baseline.sh publishes).
//
// With faults armed the extra columns report the REAL recovery work the
// coordinator did (workers killed, shards reassigned, recovery time) —
// the simulator has no counterpart for genuine SIGKILLs, so those
// columns are measured-only by design.
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "dist/Worker.h"
#include "lang/Benchmarks.h"
#include "mapreduce/Cluster.h"
#include "runtime/Runner.h"
#include "support/Args.h"
#include "support/FaultInject.h"
#include "support/Timing.h"
#include "synth/Grassp.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace grassp;

namespace {

int usage(const char *Prog, const char *Got) {
  std::fprintf(stderr,
               "usage: %s [elements] [--workers W] [--shards S] "
               "[--kill-permille K] [--exit-permille K] [--fault-seed S] "
               "[--reps R] [--json FILE]  (got '%s')\n",
               Prog, Got);
  return 2;
}

struct JobRow {
  std::string Name;
  double SerialSec = 0;
  double PredictSec = 0;
  double ColdSec = 0;
  double WarmSec = 0;
  double PublishSec = 0; // of the best warm run.
  unsigned Stripes = 0;
  double BytesPerElem = 0;
  uint64_t BytesMapped = 0;
  unsigned Killed = 0;
  unsigned Reassigned = 0;
  double RecoverySec = 0;
  bool Match = true;
};

} // namespace

int main(int argc, char **argv) {
  size_t N = 4000000;
  unsigned Workers = 4;
  unsigned Shards = 16;
  unsigned KillPm = 0, ExitPm = 0;
  unsigned Reps = 3;
  uint64_t FaultSeed = 0x5eed;
  const char *JsonPath = nullptr;
  for (int I = 1; I != argc; ++I) {
    NumericFlag Num(argc, argv, I);
    if (Num("--workers", &Workers) || Num("--shards", &Shards) ||
        Num("--kill-permille", &KillPm) || Num("--exit-permille", &ExitPm) ||
        Num("--reps", &Reps) || Num("--fault-seed", &FaultSeed))
      continue;
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
      continue;
    }
    if (!parseSize(argv[I], &N))
      return usage(argv[0], argv[I]);
  }
  if (Workers == 0 || Shards == 0 || Reps == 0) {
    std::fprintf(stderr,
                 "error: --workers, --shards, --reps must be positive\n");
    return 2;
  }

  // A representative slice of every benchmark group: scalar folds,
  // multi-state folds, a bag program, order-sensitive mode machines.
  const char *Jobs[] = {
      "sum",        "count_gt",  "max_elem",   "second_max", "average",
      "count_distinct", "is_sorted", "count_102", "max_dist_ones",
  };

  // The prediction: the Cluster's LPT scheduler over W one-slot nodes
  // with all modeled Hadoop overheads zeroed — what a perfect
  // zero-overhead process pool would achieve on the measured per-shard
  // compute times.
  mapreduce::ClusterConfig Pred;
  Pred.Nodes = Workers;
  Pred.MapSlotsPerNode = 1;
  Pred.JobStartupSec = 0;
  Pred.TaskDispatchSec = 0;
  Pred.ReduceBaseSec = 0;
  Pred.ReducePerShardSec = 0;
  Pred.RemoteReadPenalty = 1.0;

  bool Chaos = KillPm || ExitPm;
  FaultInjector Injector(FaultSeed);
  if (Chaos) {
    FaultSpec Spec;
    Spec.Probability = KillPm / 1000.0;
    Injector.arm(dist::SiteWorkerKill, Spec);
    Spec.Probability = ExitPm / 1000.0;
    Injector.arm(dist::SiteWorkerExit, Spec);
  }

  std::printf("dist runtime vs cluster-model prediction (N=%zu, %u worker "
              "process(es), %u shard(s)%s)\n",
              N, Workers, Shards, Chaos ? ", FAULTS ARMED" : "");
  if (Chaos)
    std::printf("faults: seed %llu, kill %u/1000, exit %u/1000 per "
                "attempt (REAL process deaths)\n",
                (unsigned long long)FaultSeed, KillPm, ExitPm);
  std::printf("%-16s %-10s %-10s %-10s %-10s %-10s %s\n", "job",
              "serial(s)", "predict(s)", "cold(s)", "warm(s)", "publish(s)",
              Chaos ? "B/elem    killed reassign recovery(s)" : "B/elem");
  std::printf("%s\n", std::string(Chaos ? 109 : 81, '-').c_str());

  std::vector<JobRow> Rows;
  bool Ok = true;
  for (const char *Name : Jobs) {
    const lang::SerialProgram *Prog = lang::findBenchmark(Name);
    if (!Prog) {
      std::printf("%-16s missing benchmark\n", Name);
      Ok = false;
      continue;
    }
    synth::SynthesisResult R = synth::synthesize(*Prog);
    if (!R.Success) {
      std::printf("%-16s synthesis failed\n", Name);
      Ok = false;
      continue;
    }
    runtime::CompiledProgram CP(*Prog);
    runtime::CompiledPlan Plan(*Prog, R.Plan);
    std::vector<int64_t> Data = runtime::generateWorkload(*Prog, N, 0xcafe);
    std::vector<runtime::SegmentView> Segs =
        runtime::partition(Data, Shards);

    JobRow Row;
    Row.Name = Name;
    int64_t SerialOut = runtime::runSerialTimed(CP, Segs, &Row.SerialSec);

    // Per-shard compute times through the real worker kernel, timed on
    // this host — the scheduler's input.
    std::vector<double> TaskSec(Segs.size());
    std::vector<unsigned> Home(Segs.size());
    for (size_t I = 0; I != Segs.size(); ++I) {
      Stopwatch W;
      (void)Plan.runWorker(Segs[I]);
      TaskSec[I] = W.seconds();
      Home[I] = static_cast<unsigned>(I % Workers);
    }
    Row.PredictSec = mapreduce::scheduleTasks(TaskSec, Home, Pred);

    dist::DistConfig DC;
    DC.Workers = Workers;
    DC.BackoffJitterSeed = FaultSeed;
    if (Chaos) {
      DC.Faults = &Injector;
      DC.TaskDeadlineSeconds = 0.05;
      DC.MaxWorkerRestarts = 100000;
    }

    // Cold run (forks the pool, publishes the mapping), then best-of-Reps
    // warm runs on the persistent pool — the steady-state cost the
    // prediction should be compared against.
    dist::DistCoordinator Coord(Plan, DC);
    Stopwatch WCold;
    dist::DistRunReport Rep = Coord.run(Segs);
    Row.ColdSec = WCold.seconds();
    Row.Match = Row.Match && Rep.Output == SerialOut;
    Row.Killed += Rep.WorkersKilled + Rep.WorkersExited;
    Row.Reassigned += Rep.ShardsReassigned;
    Row.RecoverySec += Rep.RecoverySeconds;
    Row.WarmSec = 1e30;
    for (unsigned Rp = 0; Rp != Reps; ++Rp) {
      Stopwatch WWarm;
      dist::DistRunReport RW = Coord.run(Segs);
      double Sec = WWarm.seconds();
      if (Sec < Row.WarmSec) {
        Row.WarmSec = Sec;
        Row.PublishSec = RW.PublishSeconds;
      }
      Row.Stripes = RW.Stripes;
      Row.Match = Row.Match && RW.Output == SerialOut;
      Row.BytesPerElem = N ? (double)RW.BytesShipped / (double)N : 0;
      Row.BytesMapped = RW.BytesMapped;
      Row.Killed += RW.WorkersKilled + RW.WorkersExited;
      Row.Reassigned += RW.ShardsReassigned;
      Row.RecoverySec += RW.RecoverySeconds;
    }

    if (!Row.Match) {
      std::printf("%-16s MISMATCH vs serial=%lld\n", Name,
                  (long long)SerialOut);
      Ok = false;
      continue;
    }
    if (Chaos)
      std::printf("%-16s %-10.4f %-10.4f %-10.4f %-10.4f %-10.4f %-8.4f  %-6u "
                  "%-8u %.4f\n",
                  Name, Row.SerialSec, Row.PredictSec, Row.ColdSec,
                  Row.WarmSec, Row.PublishSec, Row.BytesPerElem, Row.Killed,
                  Row.Reassigned, Row.RecoverySec);
    else
      std::printf("%-16s %-10.4f %-10.4f %-10.4f %-10.4f %-10.4f %.4f\n",
                  Name, Row.SerialSec, Row.PredictSec, Row.ColdSec,
                  Row.WarmSec, Row.PublishSec, Row.BytesPerElem);
    Rows.push_back(Row);
  }
  std::printf("%s\n", std::string(Chaos ? 109 : 81, '-').c_str());
  std::printf("(predict = LPT makespan of measured per-shard kernel times "
              "on %u zero-overhead nodes;\n cold = real coordinator run "
              "incl. forking the pool; warm = best-of-%u runs on the "
              "persistent pool;\n publish = writing and sealing the input "
              "stripes in that warm run;\n B/elem = socket bytes per "
              "element)\n",
              Workers, Reps);

  if (JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"n\": %zu,\n  \"workers\": %u,\n  \"shards\": %u,\n"
                 "  \"reps\": %u,\n  \"faults\": %s,\n  \"jobs\": [\n",
                 N, Workers, Shards, Reps, Chaos ? "true" : "false");
    for (size_t I = 0; I != Rows.size(); ++I) {
      const JobRow &Row = Rows[I];
      std::fprintf(
          F,
          "    {\"name\": \"%s\", \"serial_s\": %.6f, \"predict_s\": "
          "%.6f,\n     \"cold_s\": %.6f, \"warm_s\": %.6f, "
          "\"publish_s\": %.6f, \"stripes\": %u,\n     "
          "\"serial_speedup\": %.3f, \"ns_per_elem\": %.3f, "
          "\"bytes_per_elem\": %.4f,\n     \"bytes_mapped\": %llu, "
          "\"workers_killed\": %u, \"shards_reassigned\": %u,\n     "
          "\"recovery_s\": %.6f, \"match\": %s}%s\n",
          Row.Name.c_str(), Row.SerialSec, Row.PredictSec, Row.ColdSec,
          Row.WarmSec, Row.PublishSec, Row.Stripes,
          Row.WarmSec > 0 ? Row.SerialSec / Row.WarmSec : 0,
          N ? Row.WarmSec * 1e9 / (double)N : 0, Row.BytesPerElem,
          (unsigned long long)Row.BytesMapped, Row.Killed, Row.Reassigned,
          Row.RecoverySec,
          Row.Match ? "true" : "false",
          I + 1 == Rows.size() ? "" : ",");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  }
  return Ok ? 0 : 1;
}
