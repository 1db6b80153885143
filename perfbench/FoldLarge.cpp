//===- perfbench/FoldLarge.cpp - Large folds on every runtime ------------===//
//
// Nine programs, one per plan shape, each fold a seeded 2^24-element
// input (128 MiB, larger than any cache) on four paths:
//
//   serial     CompiledProgram on its chosen tier (runSerialTimed)
//   pool       runtime::runParallel on a 4-thread ThreadPool
//   dist       a warm 4-worker dist::DistCoordinator over shm
//   mergetree  a 256-chunk runtime::MergeTree: 256 appends, then a
//              seeded mix of chunk replaces and queries
//
// Each program's input is generated once, then folded in rounds of the
// four paths until the program's share of the time budget is spent; the
// MergeTree's replaced chunks carry into the next round's input. The
// four answers must agree bit for bit, and every path must match
// lang::runSerial on a small seeded input, checked after set-up and
// outside the timed rounds. Synthesis, kernel compilation and forking
// the dist workers happen in set-up only.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "dist/Coordinator.h"
#include "jit/NativeKernel.h"
#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Kernels.h"
#include "runtime/MergeTree.h"
#include "runtime/Runner.h"
#include "runtime/Workload.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"
#include "synth/ParallelDriver.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using namespace grassp;

namespace {

constexpr size_t N = size_t(1) << 24;
constexpr unsigned Shards = 16;
constexpr unsigned Threads = 4;
constexpr unsigned DistWorkers = 4;
constexpr unsigned ShardsPerWorker = Shards / DistWorkers;
static_assert(Shards % DistWorkers == 0, "workers share the shards evenly");
constexpr unsigned TreeChunks = 256;
constexpr unsigned TreeOps = 64;
constexpr size_t SmallN = 4096;
constexpr unsigned SetupReps = 3;

const char *const ProgramNames[] = {
    "sum",            "count_gt",  "max_elem",  "second_max",   "average",
    "count_distinct", "is_sorted", "count_102", "max_dist_ones"};

const runtime::ExecTier MeasuredTiers[] = {runtime::ExecTier::Specialized,
                                           runtime::ExecTier::Native,
                                           runtime::ExecTier::LoopVM};

/// One program with everything set-up builds for it. Heap-allocated:
/// CompiledPlan keeps references to Prog and Plan, and the coordinator
/// one to the CompiledPlan (declared last, so it is destroyed first).
struct Job {
  const lang::SerialProgram *Prog = nullptr;
  synth::ParallelPlan Plan;
  std::unique_ptr<runtime::CompiledPlan> Compiled;
  std::unique_ptr<dist::DistCoordinator> Coord;
  double ColdDistSec = -1; ///< first full-size dist run; -1 = not yet.
};

using Fleet = std::vector<std::unique_ptr<Job>>;

uint64_t mix(uint64_t Seed, uint64_t A, uint64_t B = 0) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + A * 1000003 + B);
  return R.next();
}

Fleet setUp(const RunOptions &O, unsigned Rep, Report &R) {
  useFreshJitCache(O.JitCacheRoot + "/setup" + std::to_string(Rep));
  jit::JitStats Before = jit::KernelCache::instance().stats();

  Fleet F;
  std::vector<const lang::SerialProgram *> Progs;
  for (const char *Name : ProgramNames) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    if (!P)
      throw std::runtime_error(std::string("unknown benchmark ") + Name);
    Progs.push_back(P);
  }
  std::vector<synth::TaskResult> Tasks;
  {
    Span Sp("synth", "ParallelDriver::run");
    synth::DriverOptions DO;
    DO.Jobs = Threads;
    Tasks = synth::ParallelDriver(DO).run(Progs);
  }
  for (size_t I = 0; I != Progs.size(); ++I) {
    if (Tasks[I].Status != synth::TaskStatus::Solved)
      throw std::runtime_error("synthesis failed for " + Progs[I]->Name);
    auto J = std::make_unique<Job>();
    J->Prog = Progs[I];
    J->Plan = Tasks[I].Result.Plan;
    F.push_back(std::move(J));
  }

  double ColdSec = 0, WarmSec = 0, PrewarmSec = 0;
  for (auto &J : F) {
    Stopwatch W;
    Span Sp("jit", "CompiledPlan (empty kernel cache)", J->Prog->Name);
    J->Compiled =
        std::make_unique<runtime::CompiledPlan>(*J->Prog, J->Plan);
    ColdSec += W.seconds();
  }
  for (auto &J : F) {
    Stopwatch W;
    Span Sp("ir", "CompiledPlan (warm kernel cache)", J->Prog->Name);
    J->Compiled =
        std::make_unique<runtime::CompiledPlan>(*J->Prog, J->Plan);
    WarmSec += W.seconds();
  }
  jit::JitStats After = jit::KernelCache::instance().stats();
  for (auto &J : F) {
    Stopwatch W;
    Span Sp("dist", "DistCoordinator::prewarm", J->Prog->Name);
    dist::DistConfig DC;
    DC.Workers = DistWorkers;
    J->Coord = std::make_unique<dist::DistCoordinator>(*J->Compiled, DC);
    J->Coord->prewarm();
    PrewarmSec += W.seconds();
  }

  R.set("jit.cold_build_s", ColdSec);
  R.set("ir.plan_build_s", WarmSec);
  R.set("dist.prewarm_s", PrewarmSec);
  R.set("jit.compiles", After.Compiles - Before.Compiles);
  R.set("jit.disk_hits", After.DiskHits - Before.DiskHits);
  R.set("jit.memory_hits", After.MemoryHits - Before.MemoryHits);
  R.set("jit.failures", After.Failures - Before.Failures);
  return F;
}

/// Every path against lang::runSerial on a small seeded input, plus the
/// tier and transport checks: a silent fallback fails the run.
void checkSmall(const RunOptions &O, Fleet &F, ThreadPool &Pool, Report &R) {
  for (size_t K = 0; K != F.size(); ++K) {
    Job &J = *F[K];
    const std::string &Name = J.Prog->Name;
    std::string Tier = runtime::execTierName(J.Compiled->compiled().tier());
    R.label("runtime.tier." + Name, Tier);
    auto Want = O.Tiers.find(Name);
    R.check(Want != O.Tiers.end() && Want->second == Tier,
            Name + " runs on tier " + Tier + ", expected " +
                (Want == O.Tiers.end() ? "(none recorded)" : Want->second));

    std::vector<int64_t> Small =
        runtime::generateWorkload(*J.Prog, SmallN, mix(O.Seed, K, 1));
    int64_t Ref = lang::runSerial(*J.Prog, Small);
    std::vector<runtime::SegmentView> Segs = runtime::partition(Small, Shards);
    R.check(runtime::runSerialTimed(J.Compiled->compiled(), Segs) == Ref,
            Name + ": serial fold differs from lang::runSerial");
    runtime::ParallelRunResult Par = runtime::runParallel(*J.Compiled, Segs,
                                                         &Pool);
    R.check(!Par.Cancelled && Par.Output == Ref,
            Name + ": thread-pool fold differs from lang::runSerial");
    dist::DistRunReport DR = J.Coord->run(Segs);
    R.check(DR.UsedShm, Name + ": dist run fell back to the inline transport");
    R.check(!DR.Cancelled && DR.Output == Ref,
            Name + ": dist fold differs from lang::runSerial");
    runtime::MergeTree T(*J.Compiled);
    for (const runtime::SegmentView &S : Segs)
      T.append(S);
    R.check(T.query() == Ref,
            Name + ": MergeTree differs from lang::runSerial");
  }
}

struct TreeTotals {
  double TreeAppend = 0, TreeReplace = 0, TreeQuery = 0, TreeCombines = 0;
};

void fillInput(const Job &J, uint64_t Seed, std::vector<int64_t> &Data) {
  Data.clear();
  runtime::WorkloadStream Gen(*J.Prog, N, Seed);
  Gen.generate(N, Data);
}

/// The MergeTree path: 256 appends, then seeded replaces and queries.
/// Replaced chunks are written back into \p Data (so the next round folds
/// the updated input) and the final query is checked against a refold.
void treeRound(const Job &J, ThreadPool &Pool, std::vector<int64_t> &Data,
               int64_t Expected, uint64_t Seed, Report &R, TreeTotals &T) {
  const std::string &Name = J.Prog->Name;
  runtime::MergeTree Tree(*J.Compiled);
  std::vector<runtime::SegmentView> Chunks =
      runtime::partition(Data, TreeChunks);
  auto query = [&] {
    Stopwatch W;
    int64_t Out;
    {
      Span Sp("runtime", "MergeTree::query", Name);
      Out = Tree.query();
    }
    double S = W.seconds();
    R.sample("tree.query_s", S);
    T.TreeQuery += S;
    return Out;
  };
  for (const runtime::SegmentView &C : Chunks) {
    Stopwatch W;
    {
      Span Sp("runtime", "MergeTree::append", Name);
      Tree.append(C);
    }
    double S = W.seconds();
    R.sample("tree.update_s", S);
    T.TreeAppend += S;
    T.TreeCombines += static_cast<double>(Tree.lastUpdateCombines());
  }
  R.check(query() == Expected, Name + ": MergeTree differs from serial");

  Rng Ops(Seed);
  std::vector<int64_t> Fresh;
  for (unsigned Op = 0; Op != TreeOps; ++Op) {
    if (Ops.chance(1, 4)) {
      (void)query();
      continue;
    }
    size_t I = Ops.bounded(TreeChunks);
    runtime::SegmentView C = Chunks[I];
    Fresh.clear();
    runtime::WorkloadStream Gen(*J.Prog, C.Size, Ops.next());
    Gen.generate(C.Size, Fresh);
    std::memcpy(Data.data() + (C.Data - Data.data()), Fresh.data(),
                C.Size * sizeof(int64_t));
    Stopwatch W;
    {
      Span Sp("runtime", "MergeTree::replace", Name);
      Tree.replace(I, C);
    }
    double S = W.seconds();
    R.sample("tree.update_s", S);
    T.TreeReplace += S;
    T.TreeCombines += static_cast<double>(Tree.lastUpdateCombines());
  }
  runtime::ParallelRunResult Refold;
  {
    Span Sp("runtime", "runParallel (MergeTree check)", Name);
    Refold = runtime::runParallel(*J.Compiled,
                                  runtime::partition(Data, Shards), &Pool);
  }
  R.check(!Refold.Cancelled && query() == Refold.Output,
          Name + ": MergeTree after updates differs from a full refold");
}

/// One round of the four paths over the input in \p Data.
void foldRound(const RunOptions &O, Job &J, size_t K, ThreadPool &Pool,
               std::vector<int64_t> &Data, unsigned RoundNo, Report &R) {
  const std::string &Name = J.Prog->Name;
  const std::string At = "@" + Name;
  std::vector<runtime::SegmentView> Segs = runtime::partition(Data, Shards);
  Stopwatch Round;

  Stopwatch WS;
  int64_t Serial;
  {
    Span Sp("runtime", "runSerial", Name);
    Serial = runtime::runSerialTimed(J.Compiled->compiled(), Segs);
  }
  R.sample("fold.serial_s" + At, WS.seconds());

  Stopwatch WP;
  runtime::ParallelRunResult Par;
  {
    Span Sp("runtime", "runParallel", Name);
    Par = runtime::runParallel(*J.Compiled, Segs, &Pool);
  }
  double PoolSec = WP.seconds();
  R.sample("fold.pool_s" + At, PoolSec);
  R.check(!Par.Cancelled && Par.Output == Serial,
          Name + ": thread-pool fold differs from serial");
  const std::vector<double> &Workers = Par.WorkerSeconds;
  double WorkerMax =
      Workers.empty() ? 0 : *std::max_element(Workers.begin(), Workers.end());
  R.sample("runtime.pool.worker_max_s" + At, WorkerMax);
  R.sample("runtime.pool.merge_s" + At, Par.MergeSeconds);
  R.sample("runtime.pool.wait_s" + At, PoolSec - WorkerMax - Par.MergeSeconds);
  R.sample("runtime.pool.retries" + At, Par.Retries);

  Stopwatch WD;
  dist::DistRunReport DR;
  {
    Span Sp("dist", "DistCoordinator::run", Name);
    DR = J.Coord->run(Segs);
  }
  double DistSec = WD.seconds();
  R.sample("fold.dist_s" + At, DistSec);
  R.check(DR.UsedShm, Name + ": dist run fell back to the inline transport");
  R.check(!DR.Cancelled && DR.Output == Serial,
          Name + ": dist fold differs from serial");
  if (J.ColdDistSec < 0)
    J.ColdDistSec = DistSec;
  R.sample("dist.warm_run_s" + At, DistSec);
  R.sample("dist.merge_s" + At, DR.MergeSeconds);
  R.sample("dist.bytes_per_elem", static_cast<double>(DR.BytesShipped) / N);
  R.sample("dist.task_frames" + At, DR.TaskFrames);
  R.sample("dist.publish_frames" + At, DR.PublishFrames);
  R.sample("dist.recoveries" + At,
           DR.WorkersKilled + DR.WorkersExited + DR.WorkersRestarted +
               DR.ShardsReassigned + DR.SerialRefolds + DR.CorruptFrames +
               DR.HangsDetected);
  if (tracing()) {
    // The dist floor: what the warm run costs beyond its slowest
    // worker's share folded serially in this process. With every worker
    // idle, the coordinator deals each one ShardsPerWorker contiguous
    // shards (its default batch is 4 shards).
    double ShareMax = 0;
    for (unsigned G = 0; G != DistWorkers; ++G) {
      Stopwatch W;
      Span Sp("runtime", "runWorker (dist floor)", Name);
      for (unsigned S = G * ShardsPerWorker; S != (G + 1) * ShardsPerWorker;
           ++S)
        (void)J.Compiled->runWorker(Segs[S]);
      ShareMax = std::max(ShareMax, W.seconds());
    }
    R.sample("dist.floor_s" + At, DistSec - ShareMax);
  }

  TreeTotals T;
  treeRound(J, Pool, Data, Serial, mix(O.Seed, K, RoundNo + 2), R, T);
  R.sample("runtime.mergetree.append_s" + At, T.TreeAppend);
  R.sample("runtime.mergetree.replace_s" + At, T.TreeReplace);
  R.sample("runtime.mergetree.query_s" + At, T.TreeQuery);
  R.sample("runtime.mergetree.combines" + At, T.TreeCombines);
  R.sample("fold_large.round_s" + At, Round.seconds());
}

/// Each program gets an equal share of \p Budget: its input is
/// generated once, then folded in rounds until the share is spent.
/// Returns the sum over programs of the median round time.
double measureFolds(const RunOptions &O, Fleet &F, ThreadPool &Pool,
                    std::vector<int64_t> &Data, double Budget, Report &R) {
  double Unit = 0;
  for (size_t K = 0; K != F.size(); ++K) {
    Job &J = *F[K];
    Span Program("bench", "fold_large.program", J.Prog->Name);
    fillInput(J, mix(O.Seed, K), Data);
    Stopwatch W;
    std::vector<double> Rounds;
    unsigned RoundNo = 0;
    do {
      Stopwatch WR;
      foldRound(O, J, K, Pool, Data, RoundNo++, R);
      Rounds.push_back(WR.seconds());
    } while (W.seconds() < Budget / F.size());
    std::sort(Rounds.begin(), Rounds.end());
    Unit += Rounds[Rounds.size() / 2];
  }
  return Unit;
}

/// ns per element of every available tier, called through runSerialTier.
void tierSweep(const RunOptions &O, Fleet &F, std::vector<int64_t> &Data,
               Report &R) {
  Span Sweep("bench", "fold_large.tiers");
  for (size_t K = 0; K != F.size(); ++K) {
    Job &J = *F[K];
    const runtime::CompiledProgram &CP = J.Compiled->compiled();
    fillInput(J, mix(O.Seed, K), Data);
    std::vector<runtime::SegmentView> Segs = runtime::partition(Data, Shards);
    int64_t Want = CP.runSerial(Segs);
    for (runtime::ExecTier Tier : MeasuredTiers) {
      if (!CP.tierAvailable(Tier))
        continue;
      const char *TierName = runtime::execTierName(Tier);
      Stopwatch W;
      int64_t Got;
      {
        Span Sp("runtime", "runSerialTier", J.Prog->Name);
        Got = CP.runSerialTier(Tier, Segs);
      }
      R.set(std::string("runtime.ns_per_elem.") + TierName + "." +
                J.Prog->Name,
            W.seconds() * 1e9 / N);
      R.check(Got == Want, J.Prog->Name + ": tier " + TierName +
                               " differs from the chosen tier");
    }
  }
}

} // namespace

void runFoldLarge(const RunOptions &O, Report &R) {
  // Dist workers fork in set-up, before the thread pool starts and
  // before the input buffer exists (so no worker shares its pages).
  Fleet F;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    F.clear(); // shut the previous coordinators down first.
    Stopwatch W;
    F = setUp(O, Rep, R);
    R.sample("setup_s", W.seconds());
  }
  ThreadPool Pool(Threads);
  checkSmall(O, F, Pool, R);

  std::vector<int64_t> Data;
  Data.reserve(N);
  measurePhases(O, R, [&](Report &Into, double Budget) {
    double Unit = measureFolds(O, F, Pool, Data, Budget, Into);
    if (tracing())
      tierSweep(O, F, Data, Into);
    return Unit;
  });
  double Cold = 0;
  for (const auto &J : F)
    Cold += J->ColdDistSec;
  R.set("dist.cold_run_s", Cold);
  R.set("fold.elements", static_cast<double>(N));
}

} // namespace perfbench
