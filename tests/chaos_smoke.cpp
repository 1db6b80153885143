//===- tests/chaos_smoke.cpp - Bounded seeded fault-injection tier --------==//
//
// The fixed-seed chaos slice that runs on every ctest invocation,
// mirroring fuzz_smoke: every fault decision is a pure function of
// (seed, site, key), so each test here is deterministic and replayable.
// Covered layers:
//
//  * FaultInjector trigger semantics (probability, every-Nth, key
//    modulo, explicit key lists, fire caps);
//  * runtime::runParallel fault tolerance — retries with exact-output
//    recovery, permanent failures falling back to the serial refold,
//    straggler speculation, and the planted-fault counters;
//  * DiffOracle/fuzz chaos mode — the fault-tolerant pool path stays
//    bit-identical to the other execution paths while faults fire;
//  * mapreduce degraded clusters — dead nodes with exact outputs and
//    recovery accounting, all-nodes-dead as an explicit error;
//  * synth::ParallelDriver — crash re-runs, the crash-retry budget, and
//    journal-based resume after a simulated mid-flight kill.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "mapreduce/Cluster.h"
#include "runtime/Runner.h"
#include "runtime/Workload.h"
#include "support/FaultInject.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"
#include "synth/Grassp.h"
#include "synth/ParallelDriver.h"
#include "testing/DiffOracle.h"
#include "testing/Fuzz.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace grassp;
namespace gt = grassp::testing;

namespace {

//===----------------------------------------------------------------------===//
// FaultInjector trigger semantics
//===----------------------------------------------------------------------===//

TEST(FaultInjector, KeyedDecisionsAreDeterministicAndSeedDependent) {
  FaultSpec Spec;
  Spec.Probability = 0.5;
  auto firingSet = [&](uint64_t Seed) {
    FaultInjector FI(Seed);
    FI.arm("chaos.test", Spec);
    std::vector<uint64_t> Fired;
    for (uint64_t K = 0; K != 256; ++K)
      if (FI.shouldFailKeyed("chaos.test", K))
        Fired.push_back(K);
    return Fired;
  };
  std::vector<uint64_t> A = firingSet(1), B = firingSet(1), C = firingSet(2);
  EXPECT_EQ(A, B); // replayable from the seed alone.
  EXPECT_NE(A, C); // and the seed matters.
  // p = 0.5 over 256 keys: a sane draw is far from both extremes.
  EXPECT_GT(A.size(), 64u);
  EXPECT_LT(A.size(), 192u);
}

TEST(FaultInjector, ExplicitKeyListFiresExactlyThoseKeys) {
  FaultInjector FI(0);
  FaultSpec Spec;
  Spec.Keys = {3, 17};
  FI.arm("s", Spec);
  for (uint64_t K = 0; K != 32; ++K)
    EXPECT_EQ(FI.shouldFailKeyed("s", K), K == 3 || K == 17) << K;
  EXPECT_EQ(FI.stats("s").Fires, 2u);
  EXPECT_EQ(FI.stats("s").Hits, 32u);
}

TEST(FaultInjector, KeyModuloPlantsFaultOnResidue) {
  FaultInjector FI(0);
  FaultSpec Spec;
  Spec.KeyModulo = 4;
  Spec.KeyResidue = 1;
  FI.arm("s", Spec);
  for (uint64_t K = 0; K != 16; ++K)
    EXPECT_EQ(FI.shouldFailKeyed("s", K), K % 4 == 1) << K;
}

TEST(FaultInjector, EveryNthCountsHits) {
  FaultInjector FI(0);
  FaultSpec Spec;
  Spec.EveryNth = 3;
  FI.arm("s", Spec);
  unsigned Fires = 0;
  for (int I = 0; I != 12; ++I)
    Fires += FI.shouldFail("s") ? 1 : 0;
  EXPECT_EQ(Fires, 4u); // hits 3, 6, 9, 12.
  EXPECT_EQ(FI.stats("s").Hits, 12u);
  EXPECT_EQ(FI.stats("s").Fires, 4u);
}

TEST(FaultInjector, MaxFiresCapsTheSite) {
  FaultInjector FI(0);
  FaultSpec Spec;
  Spec.EveryNth = 1; // would fire every hit...
  Spec.MaxFires = 2; // ...but the cap stops it.
  FI.arm("s", Spec);
  unsigned Fires = 0;
  for (int I = 0; I != 10; ++I)
    Fires += FI.shouldFail("s") ? 1 : 0;
  EXPECT_EQ(Fires, 2u);
  EXPECT_EQ(FI.totalFires(), 2u);
}

TEST(FaultInjector, UnarmedAndDisarmedSitesNeverFire) {
  FaultInjector FI(0);
  EXPECT_FALSE(FI.shouldFailKeyed("nope", 1));
  EXPECT_FALSE(FI.armed("nope"));
  FaultSpec Spec;
  Spec.Keys = {1};
  FI.arm("s", Spec);
  EXPECT_TRUE(FI.armed("s"));
  FI.disarm("s");
  EXPECT_FALSE(FI.shouldFailKeyed("s", 1));
}

TEST(FaultInjector, MaybeThrowCarriesSiteAndKey) {
  FaultInjector FI(0);
  FaultSpec Spec;
  Spec.Keys = {7};
  FI.arm("s", Spec);
  EXPECT_NO_THROW(FI.maybeThrow("s", 6));
  try {
    FI.maybeThrow("s", 7);
    FAIL() << "planted key must throw";
  } catch (const FaultInjectedError &E) {
    EXPECT_EQ(E.site(), "s");
    EXPECT_EQ(E.key(), 7u);
  }
}

TEST(FaultInjector, DelayForReturnsSpecDelayOnFire) {
  FaultInjector FI(0);
  FaultSpec Spec;
  Spec.Keys = {2};
  Spec.DelaySeconds = 0.25;
  FI.arm("s", Spec);
  EXPECT_DOUBLE_EQ(FI.delayFor("s", 1), 0.0);
  EXPECT_DOUBLE_EQ(FI.delayFor("s", 2), 0.25);
}

//===----------------------------------------------------------------------===//
// runtime::runParallel fault tolerance
//===----------------------------------------------------------------------===//

/// One cheap synthesized plan, shared across the runner tests.
const synth::SynthesisResult &sumSynth() {
  static synth::SynthesisResult R =
      synth::synthesize(*lang::findBenchmark("sum"));
  return R;
}

struct SumRun {
  std::vector<int64_t> Data;
  std::vector<runtime::SegmentView> Segs;
  runtime::CompiledProgram CP;
  runtime::CompiledPlan Plan;
  int64_t Serial;

  explicit SumRun(size_t N = 4000, unsigned M = 8)
      : Data(runtime::generateWorkload(*lang::findBenchmark("sum"), N, 21)),
        Segs(runtime::partition(Data, M)),
        CP(*lang::findBenchmark("sum")),
        Plan(*lang::findBenchmark("sum"), sumSynth().Plan),
        Serial(CP.runSerial(Segs)) {}
};

TEST(RunnerFaults, PlantedFirstAttemptFailureRetriesToExactOutput) {
  SumRun R;
  for (bool UsePool : {false, true}) {
    FaultInjector FI(9);
    FaultSpec Spec;
    // Segment 2's first attempt fails; its retry must succeed.
    Spec.Keys = {0 * runtime::WorkerAttemptKeyStride + 2};
    FI.arm(runtime::FaultSiteWorker, Spec);
    runtime::RunPolicy Pol;
    Pol.Faults = &FI;

    ThreadPool Pool(4);
    runtime::ParallelRunResult PR = runtime::runParallel(
        R.Plan, R.Segs, UsePool ? &Pool : nullptr, Pol);
    EXPECT_EQ(PR.Output, R.Serial) << "pool=" << UsePool;
    EXPECT_EQ(PR.FailedAttempts, 1u) << "pool=" << UsePool;
    EXPECT_EQ(PR.Retries, 1u) << "pool=" << UsePool;
    EXPECT_EQ(PR.SerialRefolds, 0u) << "pool=" << UsePool;
  }
}

TEST(RunnerFaults, PermanentSegmentFailureFallsBackToSerialRefold) {
  SumRun R;
  for (bool UsePool : {false, true}) {
    FaultInjector FI(9);
    FaultSpec Spec;
    // Every attempt of segment 1 fails (MaxRetries = 2 grants three).
    Spec.Keys = {0 * runtime::WorkerAttemptKeyStride + 1,
                 1 * runtime::WorkerAttemptKeyStride + 1,
                 2 * runtime::WorkerAttemptKeyStride + 1};
    FI.arm(runtime::FaultSiteWorker, Spec);
    runtime::RunPolicy Pol;
    Pol.MaxRetries = 2;
    Pol.Faults = &FI;

    ThreadPool Pool(4);
    runtime::ParallelRunResult PR = runtime::runParallel(
        R.Plan, R.Segs, UsePool ? &Pool : nullptr, Pol);
    EXPECT_EQ(PR.Output, R.Serial) << "pool=" << UsePool;
    EXPECT_EQ(PR.FailedAttempts, 3u) << "pool=" << UsePool;
    EXPECT_EQ(PR.Retries, 2u) << "pool=" << UsePool;
    EXPECT_EQ(PR.SerialRefolds, 1u) << "pool=" << UsePool;
  }
}

// A seeded probability sweep: whatever pattern of worker failures each
// seed induces, the merged output must equal the serial fold exactly.
TEST(RunnerFaults, ChaosSweepStaysBitIdentical) {
  SumRun R(6000, 12);
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    for (bool UsePool : {false, true}) {
      FaultInjector FI(Seed);
      FaultSpec Spec;
      Spec.Probability = 0.4;
      FI.arm(runtime::FaultSiteWorker, Spec);
      runtime::RunPolicy Pol;
      Pol.MaxRetries = 2;
      Pol.Speculate = UsePool;
      Pol.Faults = &FI;

      ThreadPool Pool(4);
      runtime::ParallelRunResult PR = runtime::runParallel(
          R.Plan, R.Segs, UsePool ? &Pool : nullptr, Pol);
      EXPECT_EQ(PR.Output, R.Serial)
          << "seed=" << Seed << " pool=" << UsePool << " "
          << FI.describe();
    }
  }
}

TEST(RunnerFaults, StragglerGetsSpeculativeBackup) {
  SumRun R;
  FaultInjector FI(3);
  FaultSpec Straggle;
  Straggle.Keys = {0};
  Straggle.DelaySeconds = 0.08; // primary sleeps; the backup races past.
  FI.arm(runtime::FaultSiteStraggler, Straggle);
  runtime::RunPolicy Pol;
  Pol.Faults = &FI;
  Pol.Speculate = true;
  Pol.TaskDeadlineSeconds = 0.01; // well under the 80ms stall.

  ThreadPool Pool(4);
  runtime::ParallelRunResult PR =
      runtime::runParallel(R.Plan, R.Segs, &Pool, Pol);
  EXPECT_EQ(PR.Output, R.Serial);
  EXPECT_GE(PR.SpeculativeLaunches, 1u);
  EXPECT_GE(PR.SpeculativeWins, 1u);
  EXPECT_EQ(PR.SerialRefolds, 0u);
}

// Attempt keys carry the injector's run index: a fault planted on its
// first run does not repeat on the next one, in either mode.
TEST(RunnerFaults, PlantedFaultKeysAdvanceAcrossRuns) {
  SumRun R;
  FaultInjector FI(9);
  FaultSpec Spec;
  Spec.Keys = {runtime::distAttemptKey(0, 0, 2)};
  FI.arm(runtime::FaultSiteWorker, Spec);
  runtime::RunPolicy Pol;
  Pol.Faults = &FI;
  ThreadPool Pool(4);
  runtime::ParallelRunResult First =
      runtime::runParallel(R.Plan, R.Segs, &Pool, Pol);
  runtime::ParallelRunResult Second =
      runtime::runParallel(R.Plan, R.Segs, nullptr, Pol);
  EXPECT_EQ(First.Output, R.Serial);
  EXPECT_EQ(First.FailedAttempts, 1u);
  EXPECT_EQ(Second.Output, R.Serial);
  EXPECT_EQ(Second.FailedAttempts, 0u);
}

TEST(RunnerFaults, CriticalPathModeModelsStallWithoutSleeping) {
  SumRun R;
  FaultInjector FI(3);
  FaultSpec Straggle;
  Straggle.Keys = {1};
  Straggle.DelaySeconds = 0.05;
  FI.arm(runtime::FaultSiteStraggler, Straggle);
  runtime::RunPolicy Pol;
  Pol.Faults = &FI;

  Stopwatch Wall;
  runtime::ParallelRunResult PR =
      runtime::runParallel(R.Plan, R.Segs, nullptr, Pol);
  EXPECT_EQ(PR.Output, R.Serial);
  // The stall lands in the *modeled* per-worker time...
  EXPECT_GE(PR.WorkerSeconds[1], 0.05);
  // ...but nothing actually slept for it.
  EXPECT_LT(Wall.seconds(), 0.05);
}

//===----------------------------------------------------------------------===//
// DiffOracle / fuzz chaos mode
//===----------------------------------------------------------------------===//

TEST(ChaosOracle, FaultTolerantPathStaysBitIdentical) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(sumSynth().Success);

  FaultInjector FI(11);
  FaultSpec Worker;
  Worker.Probability = 0.5;
  FI.arm(runtime::FaultSiteWorker, Worker);

  gt::OracleConfig OC;
  OC.UseEmitted = false;
  OC.Policy.MaxRetries = 3;
  OC.Policy.Faults = &FI;
  gt::DiffOracle Oracle(*P, sumSynth().Plan, OC);

  EXPECT_FALSE(Oracle.check({{1, 2, 3}, {}, {4}, {5, 6}}).Diverged);
  EXPECT_FALSE(Oracle.check({{}, {}, {}}).Diverged);
  EXPECT_FALSE(Oracle.check({{7}, {8}, {9}, {10}, {11}, {12}}).Diverged);
  // Faults really fired, and the oracle saw the recovery work.
  EXPECT_GT(FI.totalFires(), 0u) << FI.describe();
  EXPECT_GT(Oracle.faultStats().FailedAttempts, 0u);
}

TEST(ChaosOracle, ChaosFuzzSweepFindsNoDivergence) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(sumSynth().Success);

  gt::FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Seconds = 0;
  Opts.Segments = 4;
  Opts.UseEmitted = false;
  Opts.Sizes = {0, 1, 3, 17, 64};
  Opts.Chaos = true;
  Opts.ChaosSeed = 5;
  Opts.ChaosFailPermille = 300;
  Opts.ChaosStragglerPermille = 0; // keep the smoke tier fast.

  gt::FuzzReport Rep = gt::fuzzBenchmark(*P, sumSynth().Plan, Opts);
  EXPECT_FALSE(Rep.Diverged) << Rep.Shape << ": " << Rep.Detail;
  EXPECT_GT(Rep.FaultFires, 0u);
  EXPECT_GT(Rep.Faults.FailedAttempts, 0u);
}

//===----------------------------------------------------------------------===//
// mapreduce degraded clusters
//===----------------------------------------------------------------------===//

TEST(ClusterChaos, DeadNodeJobRecoversWithExactOutput) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(sumSynth().Success);

  mapreduce::ClusterConfig Cfg;
  Cfg.ComputeScale = 50000.0;
  // Small DFS blocks spread shard homes across all ten nodes, so the
  // dead node really owns map tasks that must be re-executed.
  mapreduce::MiniDfs Dfs(Cfg.Nodes, /*BlockElems=*/4096);
  std::vector<int64_t> Data = runtime::generateWorkload(*P, 60000, 5);
  Dfs.put("in", Data);
  runtime::CompiledProgram CP(*P);
  int64_t Serial = CP.runSerial({{Data.data(), Data.size()}});

  FaultInjector FI(1);
  FaultSpec Dead;
  Dead.Keys = {3}; // node 3 is down for the whole job.
  FI.arm(mapreduce::FaultSiteClusterNode, Dead);
  Cfg.Faults = &FI;

  mapreduce::JobReport Rep =
      mapreduce::runJob(*P, sumSynth().Plan, Dfs, "in", Cfg);
  EXPECT_EQ(Rep.Output, Serial); // exact even under failure.
  EXPECT_EQ(Rep.FailedNodes, 1u);
  EXPECT_GT(Rep.FailedTasks, 0u); // node 3's shards were re-executed.
  EXPECT_GT(Rep.RecoverySec, 0.0);
  // The job still finishes with a sane time model; with this small a
  // workload the 10s failure-detection floor can eat the whole speedup,
  // so only sanity is asserted, not >1.
  EXPECT_GT(Rep.Speedup, 0.0);
  EXPECT_GT(Rep.ParallelJobSec, Cfg.JobStartupSec);
}

TEST(ClusterChaos, EveryNodeDeadIsAnExplicitError) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(sumSynth().Success);

  mapreduce::ClusterConfig Cfg;
  Cfg.Nodes = 3;
  mapreduce::MiniDfs Dfs(Cfg.Nodes);
  Dfs.put("in", runtime::generateWorkload(*P, 3000, 5));

  FaultInjector FI(1);
  FaultSpec Dead;
  Dead.KeyModulo = 1; // every key: all nodes fail.
  FI.arm(mapreduce::FaultSiteClusterNode, Dead);
  Cfg.Faults = &FI;
  EXPECT_THROW(mapreduce::runJob(*P, sumSynth().Plan, Dfs, "in", Cfg),
               std::runtime_error);
}

TEST(ClusterChaos, ModeledStragglerGetsSpeculativeBackup) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(sumSynth().Success);

  mapreduce::ClusterConfig Cfg;
  Cfg.ComputeScale = 50000.0;
  mapreduce::MiniDfs Dfs(Cfg.Nodes);
  std::vector<int64_t> Data = runtime::generateWorkload(*P, 60000, 5);
  Dfs.put("in", Data);
  runtime::CompiledProgram CP(*P);
  int64_t Serial = CP.runSerial({{Data.data(), Data.size()}});

  FaultInjector FI(1);
  FaultSpec Straggle;
  Straggle.Keys = {0};          // map task 0 runs slow...
  Straggle.DelaySeconds = 30.0; // ...by 30 modeled seconds.
  FI.arm(mapreduce::FaultSiteClusterStraggler, Straggle);
  Cfg.Faults = &FI;

  mapreduce::JobReport Rep =
      mapreduce::runJob(*P, sumSynth().Plan, Dfs, "in", Cfg);
  EXPECT_EQ(Rep.Output, Serial);
  EXPECT_GE(Rep.SpeculativeTasks, 1u);
  EXPECT_EQ(Rep.FailedNodes, 0u);
}

//===----------------------------------------------------------------------===//
// Cancellation under chaos
//===----------------------------------------------------------------------===//

// The tentpole interaction: a token fired mid-run while injected
// stragglers are sleeping and workers are failing. The run must come
// back promptly (the 5s stalls are served interruptibly), report
// Cancelled without an output, and leave the pool reusable — and the
// same configuration re-run without a cancel still agrees with serial.
TEST(ChaosCancel, MidRunCancelCutsInjectedStallsAndNeverMerges) {
  SumRun R;
  FaultInjector FI(3);
  FaultSpec Straggle;
  Straggle.KeyModulo = 1; // every segment stalls...
  Straggle.DelaySeconds = 5.0; // ...for far longer than this test runs.
  FI.arm(runtime::FaultSiteStraggler, Straggle);
  FaultSpec Fail;
  Fail.Probability = 0.3;
  FI.arm(runtime::FaultSiteWorker, Fail);

  CancelToken Token = CancelToken::root();
  runtime::RunPolicy Pol;
  Pol.Faults = &FI;
  Pol.MaxRetries = 2;
  Pol.Token = Token;

  std::thread Firer([&Token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Token.cancel();
  });
  ThreadPool Pool(4);
  Stopwatch Wall;
  runtime::ParallelRunResult PR =
      runtime::runParallel(R.Plan, R.Segs, &Pool, Pol);
  double Elapsed = Wall.seconds();
  Firer.join();

  EXPECT_TRUE(PR.Cancelled);
  // Interruptible stalls: nothing served the injected 5s sleeps out.
  EXPECT_LT(Elapsed, 2.0);
  // A cut run never commits a partial merge as its output.
  EXPECT_LT(PR.CompletedSegments, static_cast<unsigned>(R.Segs.size()));

  // The pool survives the cut, and the same chaos configuration without
  // a cancel (and humane stalls) still produces the exact serial answer.
  FaultInjector FI2(3);
  FaultSpec Straggle2;
  Straggle2.Keys = {1};
  Straggle2.DelaySeconds = 0.01;
  FI2.arm(runtime::FaultSiteStraggler, Straggle2);
  FI2.arm(runtime::FaultSiteWorker, Fail);
  runtime::RunPolicy Pol2;
  Pol2.Faults = &FI2;
  Pol2.MaxRetries = 3;
  runtime::ParallelRunResult PR2 =
      runtime::runParallel(R.Plan, R.Segs, &Pool, Pol2);
  EXPECT_FALSE(PR2.Cancelled);
  EXPECT_EQ(PR2.Output, R.Serial);
}

// Same cut, critical-path (poolless) mode: the modeled path serves
// injected stalls as real sleeps only in pool mode, but cancellation
// must still stop the segment walk early and withhold the merge.
TEST(ChaosCancel, PreFiredTokenCancelsCriticalPathRun) {
  SumRun R;
  CancelToken Token = CancelToken::root();
  Token.cancel();
  runtime::RunPolicy Pol;
  Pol.Token = Token;
  runtime::ParallelRunResult PR =
      runtime::runParallel(R.Plan, R.Segs, nullptr, Pol);
  EXPECT_TRUE(PR.Cancelled);
  EXPECT_EQ(PR.CompletedSegments, 0u);
}

// A cancelled oracle check reports no verdict rather than a spurious
// divergence (the parallel path produced no output to compare).
TEST(ChaosCancel, CancelledOracleCheckIsNotADivergence) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(sumSynth().Success);

  CancelToken Token = CancelToken::root();
  Token.cancel();
  gt::OracleConfig OC;
  OC.UseEmitted = false;
  OC.Policy.Token = Token;
  gt::DiffOracle Oracle(*P, sumSynth().Plan, OC);
  EXPECT_FALSE(Oracle.check({{1, 2, 3}, {4, 5}}).Diverged);
}

// fuzzBenchmark under a fired token: the sweep stops between checks and
// says so instead of fabricating results.
TEST(ChaosCancel, FuzzSweepReportsCancelled) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(sumSynth().Success);

  CancelToken Token = CancelToken::root();
  Token.cancel();
  gt::FuzzOptions Opts;
  Opts.UseEmitted = false;
  Opts.Token = Token;
  gt::FuzzReport Rep = gt::fuzzBenchmark(*P, sumSynth().Plan, Opts);
  EXPECT_TRUE(Rep.Cancelled);
  EXPECT_FALSE(Rep.Diverged);
}

//===----------------------------------------------------------------------===//
// synth::ParallelDriver crash retries and journal resume
//===----------------------------------------------------------------------===//

std::string tempJournalPath(const char *Tag) {
  std::string Path = ::testing::TempDir() + "grassp_chaos_" + Tag + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

TEST(DriverJournal, LineRoundTripsAndTornLinesAreRejected) {
  synth::TaskResult T;
  T.Name = "sum";
  T.Status = synth::TaskStatus::Solved;
  T.Attempts = 2;
  T.BudgetMs = 1234;
  T.Result.Group = "B1";
  T.Result.SynthSeconds = 0.5;

  std::string Line = synth::journalLine(T);
  synth::JournalEntry E;
  ASSERT_TRUE(synth::parseJournalLine(Line, &E)) << Line;
  EXPECT_EQ(E.Name, "sum");
  EXPECT_EQ(E.Status, synth::TaskStatus::Solved);
  EXPECT_EQ(E.Group, "B1");
  EXPECT_EQ(E.Attempts, 2u);
  EXPECT_EQ(E.BudgetMs, 1234u);
  EXPECT_DOUBLE_EQ(E.Seconds, 0.5);

  // A crash mid-write leaves a torn prefix; it must parse as garbage,
  // not as a half-right entry.
  EXPECT_FALSE(synth::parseJournalLine(Line.substr(0, Line.size() / 2), &E));
  EXPECT_FALSE(synth::parseJournalLine("", &E));
}

TEST(DriverJournal, LoadSkipsTornLinesAndLetsLaterLinesWin) {
  std::string Path = tempJournalPath("load");
  {
    synth::TaskResult T;
    T.Name = "sum";
    T.Status = synth::TaskStatus::Unknown;
    std::ofstream Out(Path);
    Out << synth::journalLine(T) << '\n';
    T.Status = synth::TaskStatus::Solved; // the re-run superseded it.
    Out << synth::journalLine(T) << '\n';
    Out << "{\"task\":\"torn"; // the line the kill interrupted.
  }
  std::vector<synth::JournalEntry> Entries = synth::loadJournal(Path);
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Name, "sum");
  EXPECT_EQ(Entries[0].Status, synth::TaskStatus::Solved);
  std::remove(Path.c_str());
}

TEST(DriverJournal, ResumeSkipsSolvedTasksAndRunsTheRest) {
  const lang::SerialProgram *Sum = lang::findBenchmark("sum");
  const lang::SerialProgram *Count = lang::findBenchmark("count");
  ASSERT_NE(Sum, nullptr);
  ASSERT_NE(Count, nullptr);

  // Simulate a run killed mid-flight: "sum" made it into the journal,
  // "count" did not.
  std::string Path = tempJournalPath("resume");
  {
    synth::TaskResult T;
    T.Name = "sum";
    T.Status = synth::TaskStatus::Solved;
    T.Attempts = 1;
    T.BudgetMs = 30000;
    T.Result.Group = "B1";
    T.Result.SynthSeconds = 0.1;
    std::ofstream Out(Path);
    Out << synth::journalLine(T) << '\n';
  }

  synth::DriverOptions Opts;
  Opts.Jobs = 1;
  Opts.JournalPath = Path;
  Opts.Resume = true;
  synth::ParallelDriver Driver(Opts);
  std::vector<synth::TaskResult> Results = Driver.run({Sum, Count});
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].FromJournal); // restored, not re-synthesized.
  EXPECT_EQ(Results[0].Status, synth::TaskStatus::Solved);
  EXPECT_EQ(Results[0].Result.Group, "B1");
  EXPECT_FALSE(Results[1].FromJournal); // really ran.
  EXPECT_EQ(Results[1].Status, synth::TaskStatus::Solved);
  EXPECT_TRUE(Results[1].Result.Success);

  // The finished task was appended, so a second resume restores both.
  std::vector<synth::JournalEntry> Entries = synth::loadJournal(Path);
  EXPECT_EQ(Entries.size(), 2u);
  std::vector<synth::TaskResult> Again = Driver.run({Sum, Count});
  EXPECT_TRUE(Again[0].FromJournal);
  EXPECT_TRUE(Again[1].FromJournal);
  std::remove(Path.c_str());
}

TEST(DriverCrash, InjectedCrashIsRerunAtTheSameBudget) {
  const lang::SerialProgram *Sum = lang::findBenchmark("sum");
  ASSERT_NE(Sum, nullptr);

  FaultInjector FI(0);
  FaultSpec Spec;
  Spec.Keys = {0}; // attempt 1 of task 0 crashes; the re-run succeeds.
  FI.arm(synth::FaultSiteSynthTask, Spec);
  synth::DriverOptions Opts;
  Opts.Faults = &FI;

  synth::TaskResult T = synth::ParallelDriver::synthesizeOne(*Sum, Opts, 0);
  EXPECT_EQ(T.Status, synth::TaskStatus::Solved);
  EXPECT_EQ(T.CrashRetries, 1u);
  EXPECT_EQ(T.Attempts, 2u);
  EXPECT_TRUE(T.Result.Success);
}

TEST(DriverCrash, ExhaustedCrashBudgetReportsCrashed) {
  const lang::SerialProgram *Sum = lang::findBenchmark("sum");
  ASSERT_NE(Sum, nullptr);

  FaultInjector FI(0);
  FaultSpec Spec;
  Spec.Keys = {0 * synth::SynthAttemptKeyStride,
               1 * synth::SynthAttemptKeyStride,
               2 * synth::SynthAttemptKeyStride};
  FI.arm(synth::FaultSiteSynthTask, Spec);
  synth::DriverOptions Opts;
  Opts.MaxCrashRetries = 2; // three attempts total, all planted to crash.
  Opts.Faults = &FI;

  synth::TaskResult T = synth::ParallelDriver::synthesizeOne(*Sum, Opts, 0);
  EXPECT_EQ(T.Status, synth::TaskStatus::Crashed);
  EXPECT_EQ(T.CrashRetries, 2u);
  EXPECT_FALSE(T.Result.Success);
  EXPECT_NE(T.Result.FailureReason.find("crashed"), std::string::npos);
}

} // namespace
