//===- dist/Coordinator.h - Multi-process distributed execution ----------===//
//
// The real runtime behind `grassp dist-run` (ROADMAP item 4): a
// coordinator forks N worker processes connected over Unix-domain
// socket pairs and drives the synthesized plan's shards through them —
// real processes, real sockets, real kills. It promotes the
// mapreduce::Cluster cost model to an actual execution path while the
// simulator stays on as the predicted-vs-measured cross-check
// (bench/bench_dist).
//
// The coordinator is a SINGLE-THREADED poll() event loop; workers are
// threadless fork children (dist/Worker.h), forked, reaped and respawned
// by the fixed-slot support/ChildProc pool. That keeps the whole
// runtime fork-safe and TSan-clean, and makes every recovery decision
// sequential and replayable. The one exception is publication, which
// fans out to short-lived helper threads that are all joined before
// publish() returns — before the pool forks anything.
//
// Transport: every run publishes its input once as a read-only shared
// region (dist/Shm.h) and Task frames carry only (generation, stripe,
// offset, count) descriptors, so bytes over the socket are O(1) per
// shard. A binary file source is published as one stripe: the workload
// file's own fd. Every other input is split into S stripes — S =
// min(Workers, shards, MaxFrameFds, bytes / MinStripeBytes), at least 1
// — each a run of whole shards of about equal bytes in its own memfd.
// The coordinator thread writes one stripe and S-1 helper threads write
// the rest, each through its own reader (a SegmentCursor for sources),
// since one memfd serializes its writers; every stripe is sealed before
// any descriptor into it is dealt. Workers forked after publication
// inherit the stripe fds; pool workers that predate it receive all of
// them on one SCM_RIGHTS Publish frame. Descriptors are validated
// against the generation and stripe table on the worker (and the
// inherited generation's token in the Hello handshake), so a stale
// mapping is a loud worker death, never a silent wrong fold. There is
// no second transport: when publication fails (no sealable memfd, no
// free descriptor) the run refolds every shard serially in the
// coordinator and reports UsedShm=false.
//
// Shards are dealt in BATCHES: one Task frame carries up to BatchShards
// assignments (split evenly across idle workers), the worker folds them
// in order and replies one Result per item — halving round-trips
// without giving up per-shard speculation or first-commit-wins.
//
// Fork-safety in multi-threaded embedders: when the EMBEDDING process
// has other threads (DiffOracle's ThreadPool during chaos --dist),
// fork() + non-async-signal-safe work in the child is POSIX-undefined
// but safe on the glibc/Linux target this runtime assumes — glibc
// re-arms its allocator locks via atfork handlers, and the child
// touches no other shared state before exec-free workerMain. Embedders
// should still prewarm() the pool before starting threads so the bulk
// of forks happens from a single-threaded parent; only chaos respawns
// then depend on the glibc guarantee.
//
// Failure handling (the robustness core; the full detection matrix is
// in DESIGN.md, "Distributed runtime"): a worker that hung up, exited
// (the stale-mapping exit 113 included), sent a corrupt frame, or
// overran HangKillFactor x its size-scaled task deadline or the idle
// heartbeat timeout is reaped — SIGKILLed first unless it hung up
// itself — and its whole batch requeued; its slot is refilled on the
// next tick, inheriting the current mapping. A task past its plain
// deadline gets a speculative backup on a peer; first commit wins.
//
// Requeued shards wait out a decorrelated-jitter backoff
// (runtime::decorrelatedBackoff — shared with RunPolicy) before
// redispatch; a shard that exhausts its attempt budget, or outlives the
// last live worker, is refolded serially in the coordinator — the
// guaranteed last resort, exactly runParallel's discipline. Workers'
// partial fold states merge through CompiledPlan::merge, the certified
// merge, so every recovery path is bit-identical to the serial fold by
// construction (and the chaos harness checks it is).
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_DIST_COORDINATOR_H
#define GRASSP_DIST_COORDINATOR_H

#include "dist/Protocol.h"
#include "dist/Shm.h"
#include "runtime/Kernels.h"
#include "runtime/Runner.h"
#include "support/Cancel.h"
#include "support/ChildProc.h"
#include "support/FaultInject.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace grassp {
namespace runtime {
class SegmentSource;
}

namespace dist {

/// Smallest stripe publish() hands to a helper thread: below it, a
/// thread costs about as much as the copy it takes over.
inline constexpr uint64_t MinStripeBytes = uint64_t{1} << 20;

/// Fault site the coordinator consults per dealt descriptor, keyed by
/// its attempt key like the worker's dist.* sites. When it fires, the
/// descriptor names a stripe one past the published table — a mapping
/// the worker does not hold — so the worker must die with
/// StaleMapExitStatus and the shard must be requeued.
inline constexpr const char *SiteStaleStripe = "dist.descriptor.stripe";

/// The fault-injection key for one dispatch: pure in (run, attempt,
/// shard), so a chaos seed replays its exact kill pattern, tests can
/// plant "shard 3's first attempt dies" precisely, and retries of the
/// same shard draw fresh verdicts.
inline uint64_t distAttemptKey(uint64_t Run, unsigned Attempt,
                               uint64_t Shard) {
  return (Run << 32) + Attempt * runtime::WorkerAttemptKeyStride + Shard;
}

struct DistConfig {
  /// Worker processes to fork.
  unsigned Workers = 4;
  /// Extra dispatches granted per shard before the serial-refold
  /// fallback (first dispatch + MaxRetries retries).
  unsigned MaxRetries = 3;
  /// Base of the per-task deadline: a task running longer than
  /// taskDeadlineNs(elems) is a straggler and a speculative backup is
  /// dispatched to an idle peer (first commit wins).
  double TaskDeadlineSeconds = 0.25;
  /// Per-element addition to the deadline. A legitimately long fold
  /// over a big mapped shard must not be reaped as hung, so the
  /// deadline (and with it the hang-kill bound) scales with the
  /// shard's element count. 0 restores the fixed PR 8 deadline.
  double DeadlineNsPerElem = 100.0;
  /// A task running longer than HangKillFactor * taskDeadlineNs(elems)
  /// is hung: the worker is SIGKILLed and its batch requeued.
  double HangKillFactor = 2.0;
  /// Idle workers heartbeat at this period...
  double HeartbeatSeconds = 0.02;
  /// ...and an idle worker silent for longer than this is presumed hung.
  double HeartbeatTimeoutSeconds = 0.5;
  /// Launch speculative backups for stragglers.
  bool Speculate = true;
  /// Max shard assignments per batched Task frame. Dealing splits
  /// pending shards evenly across idle workers first, so small runs
  /// still use the whole pool.
  unsigned BatchShards = 4;
  /// Decorrelated-jitter backoff before redispatching a failed shard
  /// (runtime::decorrelatedBackoff; 0 = immediate).
  double BackoffSeconds = 0.0002;
  double BackoffCapSeconds = 0.02;
  uint64_t BackoffJitterSeed = 0;
  /// Total respawn budget across the coordinator's lifetime; exhausted
  /// = remaining shards refold serially.
  unsigned MaxWorkerRestarts = 64;
  /// Injector consulted by WORKERS at the dist.* sites (inherited
  /// across fork; decisions are keyed, so the copies agree).
  FaultInjector *Faults = nullptr;
  /// Cooperative cancellation: no new dispatches, no merge commit.
  CancelToken Token;
};

/// What one distributed run did — including everything that went wrong
/// and how it was recovered. Surfaced by `grassp dist-run`.
struct DistRunReport {
  int64_t Output = 0;
  bool Cancelled = false;
  unsigned Shards = 0;
  unsigned ShardsCompleted = 0;

  unsigned WorkersSpawned = 0;   // forks serving this run (incl. respawns).
  unsigned WorkersKilled = 0;    // deaths with WIFSIGNALED (real kills).
  unsigned WorkersExited = 0;    // deaths with WIFEXITED + nonzero status.
  unsigned WorkersRestarted = 0; // replacements forked after a death.
  unsigned ShardsReassigned = 0; // lost assignments requeued to peers.
  unsigned SpeculativeLaunches = 0;
  unsigned SpeculativeWins = 0;  // backups that beat their primary.
  unsigned CorruptFrames = 0;    // checksum rejects (never a wrong answer).
  unsigned HangsDetected = 0;    // deadline/heartbeat kills.
  unsigned SerialRefolds = 0;    // shards recovered in the coordinator.
  unsigned Retries = 0;          // redispatches after a lost attempt.

  /// True when this run published its input and dealt descriptors;
  /// false = publication failed and every shard refolded serially in
  /// the coordinator.
  bool UsedShm = false;
  uint64_t BytesShipped = 0;     // frame bytes in both directions.
  /// Bytes workers folded via the shared mapping — referenced by
  /// descriptor, never pushed through the socket.
  uint64_t BytesMapped = 0;
  unsigned TaskFrames = 0;       // batched Task frames sent.
  unsigned PublishFrames = 0;    // mapping re-publications to live workers.
  /// Stripes the input was published as (0 = publication failed).
  unsigned Stripes = 0;
  double WallSeconds = 0;
  /// Time publish() took: writing and sealing every stripe, or dup()ing
  /// the workload file's fd.
  double PublishSeconds = 0;
  double MergeSeconds = 0;
  /// Time spent on recovery: reap, requeue, respawn.
  double RecoverySeconds = 0;

  /// One-line human summary.
  std::string describe() const;
};

/// The coordinator. Reusable: run() may be called repeatedly (the
/// worker pool persists between runs, the mapping generation advances
/// with every publication, and attempt keys advance with an internal
/// run index so fault patterns do not repeat). Not thread-safe — one
/// event loop, one thread.
class DistCoordinator {
public:
  DistCoordinator(const runtime::CompiledPlan &Plan, const DistConfig &Cfg);
  ~DistCoordinator();
  DistCoordinator(const DistCoordinator &) = delete;
  DistCoordinator &operator=(const DistCoordinator &) = delete;

  /// Distributed run over in-memory segments: one shard per segment.
  /// The segments are copied once into sealed memfd stripes.
  DistRunReport run(const std::vector<runtime::SegmentView> &Segs);

  /// Distributed run over a SegmentSource: one shard per chunk. Binary
  /// file sources expose their GRSPWB01 region directly
  /// (SegmentSource::contiguousByteRegion) and workers mmap windows of
  /// the workload file itself — nothing is copied anywhere. Other
  /// sources (vectors, text files) are copied chunk by chunk into
  /// sealed memfd stripes, one cursor per writing thread. Merge reads
  /// only the prefetched constant-prefix repair heads
  /// (runtime::prefetchMergeHeads).
  DistRunReport run(const runtime::SegmentSource &Src);

  /// Forks the initial worker pool immediately (idempotent; run() tops
  /// the pool up regardless). Call it before the embedding process
  /// starts any threads — see the fork-safety note above: prewarmed
  /// pools keep the bulk of forks single-threaded-parent clean, leaving
  /// only crash-recovery respawns on the glibc fork guarantee.
  void prewarm();

  /// Workers currently alive (for tests).
  unsigned liveWorkers() const { return Pool.liveCount(); }
  /// The process in pool slot \p Slot, -1 when empty (for tests).
  pid_t workerPid(unsigned Slot) const { return Pool.pid(Slot); }
  /// The run index the next run() will stamp into attempt keys.
  uint64_t runIndex() const { return RunIndex; }

  /// Graceful teardown: Shutdown frames, bounded wait, SIGKILL
  /// stragglers. Idempotent; the destructor calls it.
  void shutdown();

  /// How many stripes publish() splits a copied input of \p Bytes bytes
  /// in \p Shards shards into, for a pool of \p Workers: one per
  /// worker, but no more than the shards, than one Publish frame can
  /// carry (MaxFrameFds), or than MinStripeBytes pieces of the input.
  static unsigned stripeCount(unsigned Workers, size_t Shards,
                              uint64_t Bytes);

  /// The effective deadline for one task over \p Elems elements.
  static int64_t taskDeadlineNs(const DistConfig &Cfg, uint64_t Elems) {
    return static_cast<int64_t>(Cfg.TaskDeadlineSeconds * 1e9 +
                                static_cast<double>(Elems) *
                                    Cfg.DeadlineNsPerElem);
  }

private:
  /// One shard assignment a worker currently holds. A worker's queue
  /// front is the item it is folding NOW (workers execute batches in
  /// order); everything behind it is requeued wholesale if the worker
  /// dies.
  struct Assign {
    uint64_t TaskId = 0;
    int Shard = -1;
    bool IsBackup = false;
    int64_t DispatchNs = 0;
    uint64_t Elems = 0;
  };

  /// Per-worker protocol state, indexed by pool slot; reset whenever
  /// the slot is reaped or refilled.
  struct Proc {
    FrameReader Reader;
    FrameWriter Writer; // per-connection reusable encode buffers.
    bool HelloOk = false;
    std::deque<Assign> Queue;
    /// When the queue-front item started running on the worker (its
    /// dispatch, or the previous item's Result).
    int64_t BusySinceNs = 0;
    int64_t LastSeenNs = 0; // last frame of any kind.
    /// Mapping generation the worker holds (0 = none), learned from its
    /// Hello and advanced by Publish frames we send it.
    uint64_t MapGeneration = 0;
  };

  struct ShardState {
    bool Done = false;
    unsigned Attempts = 0;    // dispatches so far (incl. backups).
    unsigned Outstanding = 0; // attempts currently on workers.
    bool BackupActive = false;
    int64_t EligibleNs = 0;   // backoff gate for redispatch.
    double PrevSleep = 0;
    runtime::WorkerOutput Out;
  };

  /// Element window of one shard within the published mapping.
  struct ShardDesc {
    uint64_t Stripe = 0;
    uint64_t Offset = 0; // within the stripe.
    uint64_t Count = 0;
  };

  /// Shard \p I's elements.
  using ChunkFn = std::function<runtime::SegmentView(size_t)>;
  /// Opens a new reader of shard views. Each reader is used by one
  /// thread at a time; readers may run concurrently.
  using OpenFn = std::function<ChunkFn()>;

  /// \p ShardElems holds each shard's element count. \p Src is the
  /// run's source, if any; only its contiguous file region is
  /// consulted, by publish().
  DistRunReport runImpl(const std::vector<uint64_t> &ShardElems,
                        const OpenFn &Open,
                        const std::vector<runtime::SegmentView> &MergeSegs,
                        const runtime::SegmentSource *Src);

  /// The one publication step: installs the run's input as the current
  /// mapping and fills Desc. A source with a contiguous file region is
  /// published as one stripe over its own (dup()ed) fd; every other
  /// input goes to writeStripes(). Returns false (mapping reset) when
  /// publishing fails; the run then refolds every shard serially.
  bool publish(const std::vector<uint64_t> &ShardElems, const OpenFn &Open,
               const ChunkFn &Chunk, const runtime::SegmentSource *Src);
  /// Splits the shards into stripeCount() stripes of about equal bytes,
  /// writes stripe 0 through \p Chunk on this thread and every other
  /// stripe on a helper thread with a reader from \p Open, joins the
  /// helpers, and seals every stripe.
  bool writeStripes(const std::vector<uint64_t> &ShardElems,
                    const OpenFn &Open, const ChunkFn &Chunk);

  /// Resets the protocol state of freshly forked slots; returns how
  /// many there were.
  unsigned adopt(const std::vector<unsigned> &Forked);
  /// Live, handshaken and holding no assignment.
  bool idle(unsigned Slot) const {
    return Pool.live(Slot) && Procs[Slot].HelloOk && Procs[Slot].Queue.empty();
  }
  /// Reap + status decode + requeue; Reason feeds counters. The pool
  /// refills the slot on the next tick.
  enum class DeathReason { Eof, Corrupt, Hang };
  void handleDeath(unsigned Slot, DeathReason Reason, DistRunReport &R,
                   std::vector<ShardState> &Shards);
  /// Sends one batched Task frame (re-publishing the mapping first when
  /// the worker's generation is stale). Returns false on send failure —
  /// the caller reaps the dead worker.
  bool dispatchBatch(unsigned Slot, const std::vector<size_t> &Batch,
                     bool IsBackup, DistRunReport &R,
                     std::vector<ShardState> &Shards);
  void drainFrames(unsigned Slot, DistRunReport &R,
                   std::vector<ShardState> &Shards, size_t *DonePtr);

  const runtime::CompiledPlan &Plan;
  DistConfig Cfg;
  uint64_t PlanHash;
  /// The currently published input region (invalid when the last
  /// publication failed) and each shard's stripe and window within it.
  ShmRegion Map;
  std::vector<ShardDesc> Desc;
  uint64_t NextGeneration = 1;
  /// Workers: Cfg.Workers slots, Cfg.MaxWorkerRestarts respawns.
  ChildPool Pool;
  std::vector<Proc> Procs;
  uint64_t NextTaskId = 1;
  uint64_t RunIndex = 0;
};

} // namespace dist
} // namespace grassp

#endif // GRASSP_DIST_COORDINATOR_H
