//===- mapreduce/Cluster.cpp -----------------------------------------------=//

#include "mapreduce/Cluster.h"

#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace grassp {
namespace mapreduce {

namespace {

/// Descending-duration task order (LPT).
std::vector<size_t> lptOrder(const std::vector<double> &TaskSec) {
  std::vector<size_t> Order(TaskSec.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return TaskSec[A] > TaskSec[B];
  });
  return Order;
}

/// Least-loaded node among the alive ones; Skip (if < Nodes) is
/// excluded so a backup never lands on its primary's node.
unsigned leastLoadedAlive(const std::vector<double> &Load,
                          const std::vector<bool> &Alive, unsigned Skip) {
  unsigned Best = ~0u;
  for (unsigned N = 0; N != Load.size(); ++N) {
    if (!Alive[N] || N == Skip)
      continue;
    if (Best == ~0u || Load[N] < Load[Best])
      Best = N;
  }
  return Best;
}

} // namespace

double scheduleTasks(const std::vector<double> &TaskSec,
                     const std::vector<unsigned> &Home,
                     const ClusterConfig &Cfg) {
  std::vector<double> Load(Cfg.Nodes, 0.0);
  for (size_t I : lptOrder(TaskSec)) {
    unsigned HomeNode = Home[I];
    unsigned BestNode = 0;
    for (unsigned S = 1; S != Cfg.Nodes; ++S)
      if (Load[S] < Load[BestNode])
        BestNode = S;

    double HomeCost = Load[HomeNode] + TaskSec[I] + Cfg.TaskDispatchSec;
    double AwayCost = Load[BestNode] +
                      TaskSec[I] * Cfg.RemoteReadPenalty +
                      Cfg.TaskDispatchSec;
    if (HomeCost <= AwayCost)
      Load[HomeNode] = HomeCost;
    else
      Load[BestNode] = AwayCost;
  }
  if (Load.empty())
    return 0.0;
  return *std::max_element(Load.begin(), Load.end());
}

double scheduleTasksDegraded(const std::vector<double> &TaskSec,
                             const std::vector<double> &ExtraSec,
                             const std::vector<unsigned> &Home,
                             const std::vector<bool> &Alive,
                             const ClusterConfig &Cfg,
                             ScheduleStats *Stats) {
  assert(Alive.size() == Cfg.Nodes && Home.size() == TaskSec.size());
  unsigned AliveCount = 0;
  for (bool A : Alive)
    AliveCount += A ? 1 : 0;
  if (AliveCount == 0 && !TaskSec.empty())
    throw std::runtime_error(
        "cluster: no surviving nodes; the job cannot make progress");

  std::vector<double> Load(Cfg.Nodes, 0.0);
  ScheduleStats Local;

  auto extra = [&](size_t I) {
    return I < ExtraSec.size() ? ExtraSec[I] : 0.0;
  };

  // Pass 1: tasks whose home node survived — the healthy LPT policy of
  // scheduleTasks restricted to alive nodes, plus straggler handling.
  for (size_t I : lptOrder(TaskSec)) {
    if (!Alive[Home[I]])
      continue;
    unsigned HomeNode = Home[I];
    unsigned BestNode = leastLoadedAlive(Load, Alive, /*Skip=*/~0u);
    double Effective = TaskSec[I] + extra(I);

    double HomeCost = Load[HomeNode] + Effective + Cfg.TaskDispatchSec;
    double AwayCost = Load[BestNode] +
                      Effective * Cfg.RemoteReadPenalty +
                      Cfg.TaskDispatchSec;
    unsigned Node = HomeCost <= AwayCost ? HomeNode : BestNode;
    double RunCost = Node == HomeNode ? Effective
                                      : Effective * Cfg.RemoteReadPenalty;

    // Hadoop-style speculation: a straggler's backup copy launches on
    // another surviving node once the task has overrun; the earlier
    // finisher wins and the loser is killed. The backup reads remotely
    // and re-runs the task at its normal (un-stalled) duration.
    if (Cfg.SpeculativeExecution && extra(I) > 0 && AliveCount >= 2) {
      unsigned BackupNode = leastLoadedAlive(Load, Alive, Node);
      if (BackupNode != ~0u) {
        ++Local.SpeculativeTasks;
        double Detect = Cfg.SpeculativeSlowFactor * TaskSec[I];
        double BackupDur =
            TaskSec[I] * Cfg.RemoteReadPenalty + Cfg.TaskDispatchSec;
        double BackupFinish =
            std::max(Load[Node] + Detect, Load[BackupNode]) + BackupDur;
        double PrimaryFinish = Load[Node] + RunCost + Cfg.TaskDispatchSec;
        if (BackupFinish < PrimaryFinish) {
          // Backup wins: the primary node is released at detection; the
          // backup node carries the re-execution.
          Load[Node] += Detect + Cfg.TaskDispatchSec;
          Load[BackupNode] = BackupFinish;
          continue;
        }
        // Primary wins: the losing backup still occupied its node.
        Load[BackupNode] += BackupDur;
      }
    }
    Load[Node] += RunCost + Cfg.TaskDispatchSec;
  }

  // Pass 2: tasks lost with their home node. They are noticed after the
  // heartbeat timeout and re-executed on survivors; the shard's replica
  // is remote by construction.
  for (size_t I : lptOrder(TaskSec)) {
    if (Alive[Home[I]])
      continue;
    ++Local.FailedTasks;
    unsigned Node = leastLoadedAlive(Load, Alive, /*Skip=*/~0u);
    double Start = std::max(Load[Node], Cfg.NodeFailureDetectSec);
    Load[Node] = Start + TaskSec[I] * Cfg.RemoteReadPenalty +
                 Cfg.TaskDispatchSec;
  }

  if (Stats)
    *Stats = Local;
  if (Load.empty())
    return 0.0;
  return *std::max_element(Load.begin(), Load.end());
}

JobReport runJob(const lang::SerialProgram &Prog,
                 const synth::ParallelPlan &Plan, const MiniDfs &Dfs,
                 const std::string &File, const ClusterConfig &Cfg) {
  JobReport Report;

  // One map task per DFS shard; two waves per node is a typical Hadoop
  // sizing, so shards = nodes * slots.
  unsigned NumShards = Cfg.Nodes * Cfg.MapSlotsPerNode;
  std::vector<Shard> Shards = Dfs.shards(File, NumShards);
  Report.NumShards = NumShards;

  // The failure model: which nodes are dead, which tasks straggle. Map
  // outputs stay exact either way — a re-executed task recomputes the
  // same pure function of its shard; only the time accounting degrades.
  std::vector<bool> Alive(Cfg.Nodes, true);
  if (Cfg.Faults) {
    for (unsigned N = 0; N != Cfg.Nodes; ++N)
      if (Cfg.Faults->shouldFailKeyed(FaultSiteClusterNode, N)) {
        Alive[N] = false;
        ++Report.FailedNodes;
      }
    if (Report.FailedNodes == Cfg.Nodes)
      throw std::runtime_error(
          "cluster: every node failed; the job cannot make progress");
  }

  runtime::CompiledPlan Compiled(Prog, Plan);

  // Execute every map task for real, timing each.
  std::vector<runtime::WorkerOutput> Outputs;
  std::vector<double> TaskSec;
  std::vector<double> ExtraSec;
  std::vector<unsigned> Home;
  Outputs.reserve(NumShards);
  for (const Shard &S : Shards) {
    Stopwatch T;
    Outputs.push_back(Compiled.runWorker(S.View));
    double Sec = T.seconds() * Cfg.ComputeScale;
    TaskSec.push_back(Sec);
    ExtraSec.push_back(
        Cfg.Faults ? Cfg.Faults->delayFor(FaultSiteClusterStraggler,
                                          TaskSec.size() - 1)
                   : 0.0);
    Home.push_back(S.HomeNode);
    Report.MeasuredComputeSec += Sec;
  }

  Stopwatch MergeT;
  Report.Output = Compiled.merge(Outputs);
  double MergeSec = MergeT.seconds() * Cfg.ComputeScale;

  // Modeled N-node job: startup + scheduled map makespan + reduce. A
  // faulted run reports RecoverySec = degraded minus healthy makespan.
  double MapMakespan;
  if (Cfg.Faults) {
    ScheduleStats Stats;
    MapMakespan =
        scheduleTasksDegraded(TaskSec, ExtraSec, Home, Alive, Cfg, &Stats);
    Report.FailedTasks = Stats.FailedTasks;
    Report.SpeculativeTasks = Stats.SpeculativeTasks;
    Report.RecoverySec =
        std::max(0.0, MapMakespan - scheduleTasks(TaskSec, Home, Cfg));
  } else {
    MapMakespan = scheduleTasks(TaskSec, Home, Cfg);
  }
  Report.ParallelJobSec = Cfg.JobStartupSec + MapMakespan +
                          Cfg.ReduceBaseSec +
                          Cfg.ReducePerShardSec * NumShards + MergeSec;

  // Modeled one-node serial job: startup + all compute sequentially.
  double SerialCompute = 0;
  for (double T : TaskSec)
    SerialCompute += T;
  Report.SerialJobSec = Cfg.JobStartupSec + SerialCompute + MergeSec;

  Report.Speedup = Report.SerialJobSec / Report.ParallelJobSec;
  return Report;
}

} // namespace mapreduce
} // namespace grassp
