//===- serve/Server.h - The grassp serve loop ----------------------------===//
//
// A long-lived, single-threaded synthesis service over a Unix-domain
// socket, the same poll()-loop shape as dist::Coordinator. One process,
// one loop, no locks: connections, the solution cache, and the solver
// pool are all owned by the loop and touched only between poll wakeups.
//
// The request ladder for a synth/certify request, in order:
//
//   1. unparsable            -> error[bad-request]
//   2. cache hit             -> certified plan + bytecode, ZERO solver
//                               work (the plan is rebound to the
//                               requester's field names — alpha-variant
//                               programs share one entry)
//   3. negative-cache hit    -> error[synth-failed] (deterministic "no
//                               plan exists" answers are cached too)
//   4. key quarantined       -> error[solver-unavailable] + retry-after
//   5. draining (SIGTERM)    -> error[shutting-down]
//   6. same key in flight    -> coalesce: join the existing solve's
//                               waiter list, one solver job total
//   7. queue past high water -> error[overloaded] + retry-after; cache
//                               hits and run/certify-hits STILL served —
//                               degradation is graceful, not total
//   8. otherwise             -> submit to the solver pool
//
// Durability: the cache journals every solution BEFORE any waiter gets
// the reply (serve/Cache.h), so an answer a client ever saw survives
// kill -9 of the server; a warm restart re-serves it as a hit.
//
// Shutdown: the first SIGTERM (support/Cancel.h drain source) stops
// accepting connections and admits no new solves, finishes in-flight
// ones, snapshots the cache, and exits 0. SIGINT or a second SIGTERM
// abandons everything immediately.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SERVE_SERVER_H
#define GRASSP_SERVE_SERVER_H

#include "serve/Cache.h"
#include "serve/Protocol.h"
#include "serve/SolverPool.h"
#include "support/Cancel.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace grassp {
namespace lang {
struct SerialProgram;
}
namespace runtime {
class CompiledProgram;
}

namespace serve {

struct ServerOptions {
  std::string SocketPath;
  std::string CacheDir;
  /// Solver pool shape and budgets (forwarded to SolverPoolOptions).
  size_t PoolSize = 2;
  uint32_t SmtTimeoutMs = 30000;
  uint32_t CertTimeoutMs = 20000;
  double JobDeadlineSec = 60.0;
  unsigned MaxAttempts = 3;
  unsigned BreakerFailures = 3;
  double QuarantineSec = 5.0;
  double BackoffBaseSec = 0.02;
  double BackoffCapSec = 1.0;
  /// Admission control: synth misses are shed once queued + in-flight
  /// jobs reach this many.
  size_t HighWaterJobs = 8;
  /// The retry-after hint attached to shed replies, ms.
  uint32_t RetryAfterMs = 250;
  size_t MaxConns = 64;
  /// Unsent reply bytes buffered per connection (fds are nonblocking;
  /// the buffer drains on POLLOUT). A client that keeps submitting but
  /// stops reading is dropped once its backlog passes this — it may
  /// never wedge the loop's single thread in write(2).
  size_t MaxConnOutBytes = 8u << 20;
  /// Negative (synth-failed) cache bounds: the table is dropped
  /// wholesale at the cap (the RunMemoCap discipline) and each entry
  /// expires after the TTL, so one environmental failure cannot answer
  /// synth-failed for a key until restart.
  size_t NegativeCap = 1024;
  double NegativeTtlSec = 600.0;
  /// Journal entries between snapshot compactions.
  uint64_t SnapshotEvery = 64;
  /// Memoized compiled programs kept for RunReq (LRU-free: the table is
  /// simply dropped when full).
  size_t RunMemoCap = 128;
  uint64_t Seed = 0;
  /// Optional injector: solver worker faults + snapshot tearing.
  FaultInjector *Faults = nullptr;
  /// Hard cancel (SIGINT / second SIGTERM): abandon everything.
  CancelToken Root;
  /// Graceful drain (first SIGTERM): finish, snapshot, exit 0.
  CancelToken Drain;
};

class ServeServer {
public:
  ServeServer(); // out-of-line: RunEntry is incomplete here.
  ~ServeServer();

  ServeServer(const ServeServer &) = delete;
  ServeServer &operator=(const ServeServer &) = delete;

  /// Binds the socket, opens the cache, prewarms the pool. False (with
  /// \p Err) on any setup failure.
  bool init(const ServerOptions &Opts, std::string *Err);

  /// The serve loop. Returns 0 on clean drain shutdown, 128+sig when
  /// the hard signal source fired, 0 when the root token was cancelled
  /// programmatically.
  int run();

  /// Counters snapshot (also the StatsReq payload).
  std::vector<std::pair<std::string, uint64_t>> counters() const;

  const SolutionCache &cache() const { return Cache; }

private:
  struct Conn {
    uint64_t Id = 0; ///< Identity for waiters; fds get reused, ids do not.
    int Fd = -1;     ///< Nonblocking; negative = condemned, reap pending.
    dist::FrameReader Reader;
    dist::FrameWriter Writer;
    /// Reply bytes a slow reader has not taken yet: [OutOff, Out.size())
    /// is unsent, flushed opportunistically after each reply and on
    /// POLLOUT. Capped by ServerOptions::MaxConnOutBytes.
    std::vector<uint8_t> Out;
    size_t OutOff = 0;
  };

  struct Waiter {
    uint64_t ConnId = 0;
    ReplyKind Kind = ReplyKind::Synth;
    /// The requester's program, canonically printed — replies rebind
    /// the solved plan to THESE field names.
    std::string ProgramText;
  };

  /// Memoized compiled program for RunReq. CompiledProgram holds a
  /// reference to its SerialProgram, so both live here, address-stable.
  struct RunEntry;

  void acceptPending();
  void serviceConn(Conn &C);
  void dropConn(size_t Idx);
  Conn *connById(uint64_t Id);
  void closeFdsInForkedChild();

  bool sendOk(Conn &C, const OkReply &R);
  bool sendErr(Conn &C, ErrCode Code, const std::string &Msg,
               uint32_t RetryAfterMs = 0);
  /// Frames the encoded payload into C.Out and flushes what the socket
  /// will take now. On a dead peer — or a backlog past MaxConnOutBytes —
  /// condemns the connection and returns false.
  bool sendFrame(Conn &C, dist::MsgType Type);
  /// Drains C.Out; false means the connection must be condemned.
  bool flushConn(Conn &C);

  void handleFrame(Conn &C, const dist::Frame &F);
  void handleSynthLike(Conn &C, const std::string &Text, ReplyKind Kind);
  void handleRun(Conn &C, const dist::Frame &F);
  void handleStats(Conn &C);

  /// Builds the cache-hit reply: parses the cached program + plan,
  /// rebinds to \p Req's field names, renders description + bytecode.
  bool buildSynthReply(const CacheEntry &E, const lang::SerialProgram &Req,
                       bool CacheHit, SynthReply *Out);
  void replyToWaiters(uint64_t Key, const SolveOutcome &O);
  void maybeSnapshot();

  ServerOptions Opts;
  int ListenFd = -1;
  std::vector<Conn> Conns;
  uint64_t NextConnId = 1;
  SolutionCache Cache;
  SolverPool Pool;

  std::map<uint64_t, std::vector<Waiter>> Waiters; ///< key -> waiters.
  std::set<uint64_t> InFlight;                     ///< keys being solved.
  /// Canonical program text per in-flight key (what the worker solves
  /// and what the cache entry will record).
  std::map<uint64_t, std::string> InFlightText;
  struct NegEntry {
    std::string Reason;
    Deadline Expiry;
  };
  /// Synthesis failures: key -> reason. Bounded (NegativeCap) and
  /// TTL-expired (NegativeTtlSec) — a failure verdict that aged out is
  /// re-solved, in case its cause was environmental.
  std::map<uint64_t, NegEntry> Negative;

  /// Keyed by an exact-text hash of the canonically printed program —
  /// NOT the alpha-invariant canonical key — and verified against the
  /// stored text on every hit, so which program runs never rests on the
  /// collision resistance of a 64-bit hash.
  std::map<uint64_t, std::unique_ptr<RunEntry>> RunMemo;

  /// Every connection's frames are received into this one frame, and
  /// run requests decoded into this one message, so a steady stream of
  /// runs reuses two buffers instead of faulting in fresh pages for each
  /// request. Buffers past MaxKeptRequestBytes are freed after use.
  dist::Frame Incoming;
  RunReqMsg RunReq;

  struct {
    uint64_t Accepted = 0;
    uint64_t Disconnects = 0;
    uint64_t BadRequests = 0;
    uint64_t CacheHits = 0;
    uint64_t CacheMisses = 0;
    uint64_t NegativeHits = 0;
    uint64_t Coalesced = 0;
    uint64_t ShedOverloaded = 0;
    uint64_t ShedShutdown = 0;
    uint64_t QuarantineRejects = 0;
    uint64_t Solved = 0;
    uint64_t SynthFailed = 0;
    uint64_t RunRequests = 0;
    uint64_t StatsRequests = 0;
    uint64_t Snapshots = 0;
  } C;

  bool Inited = false;
};

} // namespace serve
} // namespace grassp

#endif // GRASSP_SERVE_SERVER_H
