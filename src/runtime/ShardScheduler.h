//===- runtime/ShardScheduler.h - One recovery policy for every executor -===//
//
// A plan's workers are pure folds of their shards and the certified
// merge combines the partial states, so retries, speculative backups,
// the serial refold and cancellation do not depend on what runs a fold.
// ShardScheduler holds that policy once, for every executor: the
// calling thread alone and a ThreadPool (runtime::runParallel), and
// forked worker processes (dist::DistCoordinator). It is a
// single-threaded state machine that never reads a clock: the executor
// reports events with its own time and asks next() what to do. DESIGN.md
// ("One shard scheduler") has the policy in full.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_SHARDSCHEDULER_H
#define GRASSP_RUNTIME_SHARDSCHEDULER_H

#include "support/Cancel.h"
#include "support/FaultInject.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

namespace grassp {
namespace runtime {

/// Fault sites the in-process executors consult for primary attempts,
/// keyed by the attempt key. Backups and serial refolds never consult
/// the injector: they model re-execution on a healthy node.
inline constexpr const char *FaultSiteWorker = "runner.worker";
inline constexpr const char *FaultSiteStraggler = "runner.straggler";
inline constexpr uint64_t WorkerAttemptKeyStride = 1000003;

/// The one attempt key, pure in (run, attempt, shard): a chaos seed
/// replays its fault pattern, a test can plant "shard 3's first attempt
/// dies", and retries draw fresh verdicts. Run 0 gives
/// Attempt * WorkerAttemptKeyStride + Shard.
inline uint64_t distAttemptKey(uint64_t Run, unsigned Attempt,
                               uint64_t Shard) {
  return (Run << 32) + Attempt * WorkerAttemptKeyStride + Shard;
}

/// The recovery policy of every executor.
struct RunPolicy {
  /// Attempts beyond the first before the serial refold; backups count.
  unsigned MaxRetries = 3;
  /// A released shard is dealt again after decorrelatedBackoff(Base,
  /// Cap, previous gate, seed, attempt key); Base 0 = at once.
  double BackoffSeconds = 0.0002;
  double BackoffCapSeconds = 0.02;
  uint64_t BackoffJitterSeed = 0;
  /// A primary running longer than TaskDeadlineSeconds + elements *
  /// DeadlineNsPerElem gets one backup; the first commit wins.
  bool Speculate = true;
  double TaskDeadlineSeconds = 0.25;
  double DeadlineNsPerElem = 100.0;
  /// Consulted by the executors' fault sites; null = no injection.
  FaultInjector *Faults = nullptr;
  /// When it fires: no new attempts and no merge.
  CancelToken Token;
};

/// The deadline of one attempt over \p Elems elements, in nanoseconds.
inline int64_t taskDeadlineNs(const RunPolicy &P, uint64_t Elems) {
  return static_cast<int64_t>(P.TaskDeadlineSeconds * 1e9 +
                              static_cast<double>(Elems) *
                                  P.DeadlineNsPerElem);
}

/// Decorrelated-jitter backoff (the AWS "decorrelated jitter" scheme):
/// uniform in [Base, 3 * Prev], capped at \p Cap, where \p Prev is the
/// previous sleep (Base before the first). A pure hash of (Seed, Key),
/// so it replays from the seed and distinct keys decorrelate. Returns 0
/// when Base <= 0.
double decorrelatedBackoff(double Base, double Cap, double Prev,
                           uint64_t Seed, uint64_t Key);

/// What recovery cost one run, or many summed with +=. The scheduler
/// fills the first seven; the process executor the worker counters.
struct RecoveryCounters {
  unsigned Runs = 0;                // runs summed into this set.
  unsigned FailedAttempts = 0;      // attempts that threw.
  unsigned Retries = 0;             // attempts dealt after the first.
  unsigned ShardsReassigned = 0;    // shards requeued after a lost worker.
  unsigned SpeculativeLaunches = 0; // backups launched.
  unsigned SpeculativeWins = 0;     // backups that beat their primary.
  unsigned SerialRefolds = 0;       // shards refolded by the executor.
  unsigned WorkersKilled = 0;       // deaths with WIFSIGNALED.
  unsigned WorkersExited = 0;       // deaths with WIFEXITED + nonzero.
  unsigned WorkersRestarted = 0;    // replacements forked after a death.
  unsigned CorruptFrames = 0;       // checksum rejects.
  unsigned HangsDetected = 0;       // kills of workers owing a frame.

  RecoveryCounters &operator+=(const RecoveryCounters &O);
};

/// The steady clock in nanoseconds: the time real executors report.
inline int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class ShardScheduler {
public:
  struct Attempt {
    size_t Shard = 0;
    unsigned Number = 0; // per shard, from 0; backups count.
    bool Backup = false;
    uint64_t Key = 0;    // distAttemptKey(Run, Number, Shard).
  };

  enum class Step {
    Deal,   // start attempt A.
    Backup, // start A, a backup of a straggling primary.
    Refold, // fold shard A.Shard in place now; it counts as committed.
    Wait,   // nothing to do before UntilNs or the next event.
    Merge,  // every shard is committed.
    Cancel, // the token fired: stop, and merge nothing.
  };

  struct Decision {
    Step S = Step::Wait;
    Attempt A;
    /// For Wait: when a backoff gate opens or a deadline passes next;
    /// INT64_MAX when only an event can change anything.
    int64_t UntilNs = INT64_MAX;
  };

  /// What the executor can take when it asks.
  struct Capacity {
    bool Deal = false;
    bool Backup = false;
    bool Offline = false; // nothing can run: refold every waiting shard.
  };

  /// Shard I holds \p ShardElems[I] elements; \p Run salts the keys.
  ShardScheduler(const RunPolicy &Policy, std::vector<uint64_t> ShardElems,
                 uint64_t Run);

  /// The next decision at \p NowNs. A dealt attempt must be started and
  /// reported as completed, failed or lost.
  Decision next(int64_t NowNs, Capacity Room);

  /// \p A began running; its deadline counts from here.
  void started(const Attempt &A, int64_t NowNs);
  /// True iff \p A is its shard's first commit: keep its output.
  bool completed(const Attempt &A);
  /// \p A threw.
  void failed(const Attempt &A, int64_t NowNs);
  /// \p A died with its worker, or never ran.
  void lost(const Attempt &A, int64_t NowNs);

  /// Committed shards, refolds included.
  size_t done() const { return Done; }
  const RecoveryCounters &counters() const { return Counters; }

private:
  struct Shard {
    uint64_t Elems = 0;
    unsigned Attempts = 0;    // dealt so far.
    unsigned Outstanding = 0; // dealt and not yet reported.
    bool Done = false;
    bool BackedUp = false;
    int64_t StartNs = -1;     // the running primary's start; -1 = none.
    int64_t EligibleNs = 0;   // the backoff gate.
    double PrevSleep = 0;
  };

  Attempt launch(size_t I, bool Backup);
  /// Ends \p A without output; once nothing of its shard runs, the
  /// shard waits behind a new backoff gate.
  void release(const Attempt &A, int64_t NowNs, bool Lost);
  bool exhausted(const Shard &S) const {
    return S.Attempts > Policy.MaxRetries;
  }

  RunPolicy Policy;
  uint64_t Run;
  std::vector<Shard> Shards;
  std::deque<size_t> Waiting; // to deal or refold, oldest first.
  size_t Done = 0;
  /// No running primary is due for a backup before this time.
  int64_t NextDeadlineNs = INT64_MAX;
  RecoveryCounters Counters;
};

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_SHARDSCHEDULER_H
