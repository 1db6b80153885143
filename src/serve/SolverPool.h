//===- serve/SolverPool.h - Fork-isolated solver worker pool -------------===//
//
// The reason `grassp serve` survives: Z3 never runs inside the server
// process. Every cache-miss solve is shipped over a socketpair to a
// prewarmed worker child forked before any solver state existed, so a
// segfaulting, hanging, or OOM-killed solve takes down exactly one
// disposable process. The server observes the death through the fd
// (EOF/POLLHUP — no idle heartbeats needed on a reliable socketpair),
// reaps and decodes it through the support/ChildProc pool (PoolSize
// slots, refilled every pump() within MaxRespawns), and retries the job
// on a fresh worker with decorrelated backoff.
//
// Failure policy, in order:
//
//  * A SolveDone with Solved=0 is a *deterministic* synthesis failure
//    (no plan in the fragment class): reported once, never retried,
//    never breaker-counted.
//  * A worker death mid-job is an *infrastructure* failure: the job is
//    requeued with decorrelatedBackoff(Base, Cap, Prev, Seed, Key) up
//    to MaxAttempts total attempts.
//  * BreakerFailures consecutive deaths on the SAME key trip its
//    circuit breaker: the key is quarantined for QuarantineSec and the
//    waiters get a typed error[solver-unavailable] with retry-after —
//    one poisonous program cannot eat the pool alive while healthy
//    keys keep being served.
//  * A job exceeding JobDeadlineSec is a hang: the worker is SIGKILLed
//    and the death path above takes over (this is what reaps the
//    serve.worker.hang fault).
//
// Single-threaded like everything in the serve loop: the server calls
// pump() every tick (and pollFds() so worker replies wake it early).
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SERVE_SOLVERPOOL_H
#define GRASSP_SERVE_SOLVERPOOL_H

#include "serve/Protocol.h"
#include "support/Cancel.h"
#include "support/ChildProc.h"
#include "support/FaultInject.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>

namespace grassp {
namespace serve {

/// Fault sites consulted BY THE WORKER CHILD when a job arrives, keyed
/// by SolveJobMsg::FaultKey (pure in (key, attempt) — replayable).
inline constexpr const char *FaultSiteWorkerKill = "serve.worker.kill";
inline constexpr const char *FaultSiteWorkerHang = "serve.worker.hang";

struct SolverPoolOptions {
  /// Prewarmed worker processes.
  size_t PoolSize = 2;
  /// Per-attempt wall-clock bound; past it the worker is SIGKILLed.
  double JobDeadlineSec = 60.0;
  /// Total attempts per job before giving up (1 = no retry).
  unsigned MaxAttempts = 3;
  /// Decorrelated-jitter retry backoff (seconds).
  double BackoffBaseSec = 0.02;
  double BackoffCapSec = 1.0;
  /// Consecutive worker deaths on one key that trip its breaker.
  unsigned BreakerFailures = 3;
  /// How long a tripped key stays quarantined.
  double QuarantineSec = 5.0;
  /// Lifetime cap on worker respawns (fork-bomb backstop); a failed
  /// respawn counts too.
  unsigned MaxRespawns = 256;
  /// Seed for the backoff draws.
  uint64_t Seed = 0;
  /// Solver budgets forwarded in each job.
  uint32_t SmtTimeoutMs = 30000;
  uint32_t CertTimeoutMs = 20000;
  /// Injector consulted by worker children (inherited across fork) at
  /// serve.worker.kill / serve.worker.hang. Optional.
  FaultInjector *Faults = nullptr;
  /// Runs in the CHILD immediately after fork, before the worker loop:
  /// the server closes its listen socket, client fds, and cache journal
  /// fd here so a worker never holds server resources open.
  std::function<void()> AtForkChild;
};

/// One finished job, surfaced by pump().
struct SolveOutcome {
  uint64_t JobId = 0;
  uint64_t Key = 0;
  /// The worker's verdict (valid when Kind == Done).
  SolveDoneMsg Done;
  enum class Kind : uint8_t {
    Done,        ///< Worker replied (Done.Solved says success/failure).
    Exhausted,   ///< Died MaxAttempts times; FailureReason has the story.
    Quarantined, ///< Key circuit-broken; RetryAfterMs set.
  } Outcome = Kind::Done;
  std::string FailureReason;
  uint32_t RetryAfterMs = 0;
};

class SolverPool {
public:
  SolverPool() = default;
  ~SolverPool();

  SolverPool(const SolverPool &) = delete;
  SolverPool &operator=(const SolverPool &) = delete;

  /// Forks the prewarmed workers. False (with \p Err) when fork or
  /// socketpair fails outright.
  bool start(const SolverPoolOptions &Opts, std::string *Err);

  /// Enqueues a solve for \p Key; returns the job id. The caller has
  /// already checked quarantine (submit does not re-check — a caller
  /// that wants to queue into a quarantined key may).
  uint64_t submit(uint64_t Key, const std::string &ProgramText);

  /// True when \p Key is currently circuit-broken; \p RetryAfterMs (if
  /// non-null) receives the remaining quarantine in ms (>= 1).
  bool quarantined(uint64_t Key, uint32_t *RetryAfterMs = nullptr);

  /// Appends the worker fds (POLLIN) so the server's poll() wakes the
  /// moment a solve finishes or a worker dies.
  void pollFds(std::vector<struct pollfd> *Out) const;

  /// One scheduling round: drains worker replies, reaps deaths, kills
  /// deadline-blown hangs, requeues/retries/quarantines, dispatches
  /// ready jobs to idle workers, respawns. Finished jobs append to
  /// \p Out.
  void pump(std::vector<SolveOutcome> *Out);

  /// Sends Shutdown to every worker and reaps them (SIGKILL after
  /// \p GraceSec). In-flight jobs are abandoned. Idempotent.
  void shutdown(double GraceSec = 2.0);

  size_t idleWorkers() const;
  size_t liveWorkers() const { return Children ? Children->liveCount() : 0; }
  size_t pendingJobs() const { return Pending.size(); }
  size_t inFlightJobs() const;

  struct Stats {
    uint64_t Submitted = 0;
    uint64_t Completed = 0; ///< SolveDone received (either verdict).
    uint64_t WorkerDeaths = 0;
    uint64_t DeadlineKills = 0;
    uint64_t Retries = 0;
    uint64_t Exhausted = 0;
    uint64_t BreakerTrips = 0;
    uint64_t Respawns = 0; ///< Successful respawns.
  };
  const Stats &stats() const { return Counters; }

private:
  struct Job {
    uint64_t JobId = 0;
    uint64_t Key = 0;
    std::string Program;
    unsigned Attempt = 0;  ///< attempts already consumed.
    double PrevBackoff = 0;
    Deadline ReadyAt;      ///< not dispatched before this passes.
  };

  /// Per-slot job state, indexed like the ChildPool's slots.
  struct Worker {
    dist::FrameReader Reader;
    dist::FrameWriter Writer;
    bool Busy = false;
    Job Current;          ///< valid when Busy.
    Deadline JobDeadline; ///< valid when Busy.
  };

  void dispatchReady(std::vector<SolveOutcome> *Out);
  /// SIGKILLs and reaps the worker in \p Slot, failing its job (if any).
  void handleWorkerDown(unsigned Slot, std::vector<SolveOutcome> *Out);
  void failAttempt(Job J, const std::string &Reason,
                   std::vector<SolveOutcome> *Out);

  SolverPoolOptions Opts;
  /// Null until start() succeeds.
  std::unique_ptr<ChildPool> Children;
  std::vector<Worker> Workers;
  std::deque<Job> Pending;
  uint64_t NextJobId = 1;
  /// Consecutive infrastructure failures per key (reset on SolveDone).
  std::map<uint64_t, unsigned> BreakerCount;
  /// Quarantine expiry per tripped key.
  std::map<uint64_t, Deadline> Quarantine;
  Stats Counters;
  bool ShutDown = false;
};

/// The worker child's main loop (exposed for the chaos harness, which
/// forks workers under its own injector). Never returns; _exit()s on
/// Shutdown, EOF, or a corrupt frame.
[[noreturn]] void solverWorkerMain(int Fd, FaultInjector *Faults);

} // namespace serve
} // namespace grassp

#endif // GRASSP_SERVE_SOLVERPOOL_H
