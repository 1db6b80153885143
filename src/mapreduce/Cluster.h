//===- mapreduce/Cluster.h - MapReduce jobs on a simulated cluster -------===//
//
// Reproduces the paper's Table-2 experiment (10-node Amazon EMR) on a
// single host: map tasks execute the *real* compiled worker kernels and
// are timed; the cluster simulator then schedules those measured task
// times onto N model nodes (locality-aware LPT), adding Hadoop-style job
// startup, per-task dispatch, and reduce costs. The serial baseline is
// the same job on one node. Outputs are exact (the kernels really run);
// only the time accounting is modeled — see DESIGN.md.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_MAPREDUCE_CLUSTER_H
#define GRASSP_MAPREDUCE_CLUSTER_H

#include "mapreduce/Dfs.h"
#include "runtime/Kernels.h"
#include "support/FaultInject.h"

#include <string>
#include <vector>

namespace grassp {
namespace mapreduce {

/// Fault sites the cluster simulator consults (ClusterConfig::Faults).
/// cluster.node is keyed by the node id: a firing node is dead for the
/// whole job, its map tasks are lost and re-executed on survivors.
/// cluster.straggler is keyed by the map-task index: a firing task runs
/// DelaySeconds of *modeled* seconds slow (nothing really sleeps), which
/// Hadoop-style speculative execution may hide with a backup copy.
inline constexpr const char *FaultSiteClusterNode = "cluster.node";
inline constexpr const char *FaultSiteClusterStraggler = "cluster.straggler";

/// Cost model of the cluster; defaults loosely follow a small EMR
/// deployment (job startup dominated by YARN container spin-up).
struct ClusterConfig {
  unsigned Nodes = 10;
  unsigned MapSlotsPerNode = 2;       // m3.xlarge-ish
  double JobStartupSec = 12.0;        // AM + container launch
  double TaskDispatchSec = 1.5;       // per map task
  double RemoteReadPenalty = 1.15;    // non-local shard read factor
  double ReduceBaseSec = 4.0;         // reducer spin-up + commit
  double ReducePerShardSec = 0.05;    // shuffle+merge per map output
  /// Multiplier applied to measured compute time to model the target
  /// node's speed relative to this host (1.0 = same speed).
  double ComputeScale = 1.0;

  // Failure model (consulted only when Faults is set).
  FaultInjector *Faults = nullptr;
  /// Heartbeat timeout before a dead node's tasks are re-executed.
  double NodeFailureDetectSec = 10.0;
};

struct JobReport {
  int64_t Output = 0;
  unsigned NumShards = 0;
  double SerialJobSec = 0;   // modeled one-node serial job.
  double ParallelJobSec = 0; // modeled N-node MapReduce job.
  double Speedup = 0;
  double MeasuredComputeSec = 0; // actual host compute across all tasks.
  // Degraded-cluster accounting (all zero on a healthy run).
  unsigned FailedNodes = 0;
  unsigned FailedTasks = 0;      // map tasks lost to dead nodes, re-run.
  unsigned SpeculativeTasks = 0; // backup copies launched for stragglers.
  double RecoverySec = 0;        // degraded minus healthy map makespan.
};

/// Locality-aware LPT at node granularity. Map tasks are scan-dominated,
/// so a node's shard reads serialize on its storage bandwidth: each node
/// is one bin regardless of map slots. Tasks prefer their home node; a
/// task migrates when another node is less loaded, paying the
/// remote-read penalty. Returns the map-phase makespan in seconds (0 for
/// an empty task list). Requires Cfg.Nodes >= 1 and every Home entry
/// < Cfg.Nodes.
double scheduleTasks(const std::vector<double> &TaskSec,
                     const std::vector<unsigned> &Home,
                     const ClusterConfig &Cfg);

struct ScheduleStats {
  unsigned FailedTasks = 0;
  unsigned SpeculativeTasks = 0;
};

/// Degraded-cluster variant of scheduleTasks. Nodes with Alive[n] ==
/// false are dead for the whole job: their tasks are lost, detected
/// after Cfg.NodeFailureDetectSec, and re-executed on surviving nodes
/// with the remote-read penalty (Hadoop's map re-execution). Straggling
/// tasks (ExtraSec[i] > 0 modeled extra seconds; pass {} for none) may
/// get a speculative backup on another surviving node; the earlier
/// completion wins. Throws std::runtime_error when no node survives —
/// a degraded cluster degrades explicitly, it never hangs or silently
/// drops tasks. Requires every Home entry < Cfg.Nodes and Alive.size()
/// == Cfg.Nodes.
double scheduleTasksDegraded(const std::vector<double> &TaskSec,
                             const std::vector<double> &ExtraSec,
                             const std::vector<unsigned> &Home,
                             const std::vector<bool> &Alive,
                             const ClusterConfig &Cfg,
                             ScheduleStats *Stats = nullptr);

/// Runs plan \p Plan as a MapReduce job over DFS file \p File.
JobReport runJob(const lang::SerialProgram &Prog,
                 const synth::ParallelPlan &Plan, const MiniDfs &Dfs,
                 const std::string &File, const ClusterConfig &Cfg);

} // namespace mapreduce
} // namespace grassp

#endif // GRASSP_MAPREDUCE_CLUSTER_H
