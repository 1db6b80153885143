//===- dist/Coordinator.h - Multi-process distributed execution ----------===//
//
// The real runtime behind `grassp dist-run`: a coordinator drives the
// plan's shards through N forked worker processes over Unix-domain
// socket pairs — real processes, real sockets, real kills — while the
// mapreduce::Cluster model stays on as the predicted-vs-measured
// cross-check (bench/bench_dist).
//
// The coordinator is a SINGLE-THREADED poll() event loop; workers are
// threadless fork children (dist/Worker.h) kept by the fixed-slot
// support/ChildProc pool. That keeps the runtime fork-safe, TSan-clean
// and replayable. The one exception is publication, whose helper
// threads are all joined before publish() returns.
//
// Transport: every run publishes its input once as a read-only shared
// region (dist/Shm.h) and Task frames carry only (generation, stripe,
// offset, count) descriptors, so bytes over the socket are O(1) per
// shard. A binary file source is published as one stripe, its own fd;
// every other input as S sealed memfd stripes written by S threads (S =
// stripeCount()). Every worker receives the stripe fds on one
// SCM_RIGHTS Publish frame before its first descriptor of a generation;
// a worker forked while a mapping is published closes the parent's
// copies. A stale descriptor is a loud worker death, never a silent
// wrong fold.
// When publication fails, every shard refolds in the coordinator and
// the report says UsedShm=false. DESIGN.md, "Distributed runtime", has
// the details and the failure-detection matrix.
//
// Fork-safety: run() tops the pool up before it publishes, so no fork
// overlaps the publication helpers. An embedder with other threads
// (DiffOracle's ThreadPool during chaos --dist) should prewarm() before
// starting them, so only crash respawns fork from a multi-threaded
// parent, which glibc/Linux makes safe via its atfork handlers.
//
// Recovery: the coordinator is the process executor of
// runtime/ShardScheduler, the state machine under runParallel, which
// decides what is dealt, backed up, dealt again, or refolded here. The
// coordinator keeps the process concerns: batching (up to BatchShards
// descriptors per Task frame), Publish frames, hang kills and respawns.
// A worker is dead on EOF, a socket error or a corrupt frame; it is hung
// only when it owes a frame past that frame's deadline (its Hello, or
// the Result of the item it is folding) with no bytes waiting unread.
// Either way it is reaped, and every attempt it held is reported lost.
// Partial states merge through the certified CompiledPlan::merge, so
// every recovery path is bit-identical to the serial fold.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_DIST_COORDINATOR_H
#define GRASSP_DIST_COORDINATOR_H

#include "dist/Protocol.h"
#include "dist/Shm.h"
#include "runtime/Kernels.h"
#include "runtime/Runner.h"
#include "support/ChildProc.h"

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

/// Workers consult their dist.* fault sites with each descriptor's key.
using runtime::distAttemptKey;

/// A task running longer than HangKillFactor * its deadline
/// (runtime::taskDeadlineNs) is hung: the worker is SIGKILLed.
inline constexpr double HangKillFactor = 2.0;
/// A worker that has not sent its Hello this long after its fork is
/// hung: the worker is SIGKILLed.
inline constexpr double HelloTimeoutSeconds = 0.5;

/// The process executor's configuration: the shared recovery policy
/// (whose Faults are consulted by WORKERS at the dist.* sites, inherited
/// across fork; decisions are keyed, so the copies agree) plus the pool.
struct DistConfig : runtime::RunPolicy {
  /// Worker processes to fork.
  unsigned Workers = 4;
  /// Max shard assignments per batched Task frame. Dealing splits
  /// pending shards evenly across idle workers first, so small runs
  /// still use the whole pool.
  unsigned BatchShards = 4;
  /// Total respawn budget across the coordinator's lifetime; exhausted
  /// = remaining shards refold serially.
  unsigned MaxWorkerRestarts = 64;
};

/// What one distributed run did — including everything that went wrong
/// and how it was recovered. Surfaced by `grassp dist-run`.
struct DistRunReport : runtime::RecoveryCounters {
  int64_t Output = 0;
  bool Cancelled = false;
  unsigned Shards = 0;
  unsigned ShardsCompleted = 0;
  unsigned WorkersSpawned = 0; // forks serving this run (incl. respawns).

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
  /// sealed memfd stripes, one cursor per writing thread.
  DistRunReport run(const runtime::SegmentSource &Src);

  /// Forks the initial worker pool immediately (idempotent; run() tops
  /// the pool up regardless). Call it before the embedding process
  /// starts any threads — see the fork-safety note above: prewarmed
  /// pools keep the bulk of forks single-threaded-parent clean, leaving
  /// only crash-recovery respawns on the glibc fork guarantee. Their
  /// Hellos may wait unread until the first run, whenever it comes.
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

private:
  using Attempt = runtime::ShardScheduler::Attempt;

  /// One attempt a worker currently holds. A worker's queue front is the
  /// item it is folding NOW (workers execute batches in order);
  /// everything behind it is lost with it if the worker dies.
  struct Assign {
    uint64_t TaskId = 0;
    Attempt A;
    int64_t StartNs = -1; // when it reached the queue front.
  };

  /// Per-worker protocol state, indexed by pool slot; reset whenever
  /// the slot is reaped or refilled.
  struct Proc {
    FrameReader Reader;
    FrameWriter Writer; // per-connection reusable encode buffers.
    bool HelloOk = false;
    std::deque<Assign> Queue;
    int64_t ForkNs = 0; // the Hello deadline runs from here.
    /// Mapping generation the worker holds (0 = none), advanced by the
    /// Publish frames we send it.
    uint64_t MapGeneration = 0;
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
                        const OpenFn &Open, const runtime::SegmentSource *Src);

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
  /// Every live worker has said Hello.
  bool greeted() const {
    for (unsigned Slot = 0; Slot != Procs.size(); ++Slot)
      if (Pool.live(Slot) && !Procs[Slot].HelloOk)
        return false;
    return true;
  }
  /// Reap + status decode; every attempt the worker held is lost. The
  /// pool refills the slot on the next tick.
  enum class DeathReason { Eof, Corrupt, Hang };
  void handleDeath(unsigned Slot, DeathReason Reason, DistRunReport &R,
                   runtime::ShardScheduler &Sched);
  /// Queues \p Batch on the worker and sends it as one Task frame
  /// (publishing the mapping first when the worker does not hold the
  /// current generation). Returns false on send failure: the caller
  /// reaps the dead worker, losing the batch with it.
  bool dispatchBatch(unsigned Slot, const std::vector<Attempt> &Batch,
                     DistRunReport &R, runtime::ShardScheduler &Sched);
  /// Reports the worker's queue front as started, once.
  void startFront(unsigned Slot, int64_t NowNs,
                  runtime::ShardScheduler &Sched);
  void drainFrames(unsigned Slot, DistRunReport &R,
                   runtime::ShardScheduler &Sched,
                   std::vector<runtime::WorkerOutput> &Outs);
  /// Kills every live worker that owes a frame past its deadline and
  /// has no bytes waiting unread.
  void killOverdue(DistRunReport &R, runtime::ShardScheduler &Sched);

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
