//===- serve/Server.cpp --------------------------------------------------==//

#include "serve/Server.h"

#include "runtime/Kernels.h"
#include "serve/CanonHash.h"
#include "serve/ProgramText.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace grassp {
namespace serve {

namespace {

constexpr int TickMs = 25;

/// Largest request buffer the server keeps for the next request (a
/// 2^21-element run); larger ones are freed once their request is done.
constexpr size_t MaxKeptRequestBytes = size_t{16} << 20;

bool certWireFromName(const std::string &S, CertWire *Out) {
  for (CertWire W : {CertWire::Certified, CertWire::NotCertified,
                     CertWire::Unknown, CertWire::Unsupported,
                     CertWire::NotRun}) {
    if (S == certWireName(W)) {
      *Out = W;
      return true;
    }
  }
  return false;
}

} // namespace

struct ServeServer::RunEntry {
  lang::SerialProgram Prog;
  std::string Text; ///< printProgramText(Prog): the hit-verification key.
  runtime::CompiledProgram Compiled;
  RunEntry(lang::SerialProgram P, std::string T)
      : Prog(std::move(P)), Text(std::move(T)), Compiled(Prog) {}
};

ServeServer::ServeServer() = default;

ServeServer::~ServeServer() {
  for (Conn &Cn : Conns)
    if (Cn.Fd >= 0)
      ::close(Cn.Fd);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    if (!Opts.SocketPath.empty())
      ::unlink(Opts.SocketPath.c_str());
  }
}

void ServeServer::closeFdsInForkedChild() {
  // Runs in a freshly forked solver worker: drop every server-side fd
  // so a worker never pins the listen socket, a client connection, or
  // the cache journal open.
  if (ListenFd >= 0)
    ::close(ListenFd);
  for (Conn &Cn : Conns)
    if (Cn.Fd >= 0)
      ::close(Cn.Fd);
  Cache.closeInForkedChild();
}

bool ServeServer::init(const ServerOptions &O, std::string *Err) {
  Opts = O;
  ignoreSigpipe();

  if (!Cache.open(Opts.CacheDir, Err))
    return false;

  struct sockaddr_un Addr;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    *Err = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (ListenFd < 0) {
    *Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Opts.SocketPath.c_str()); // stale path from a previous life.
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(ListenFd, 64) != 0) {
    *Err = std::string("bind/listen ") + Opts.SocketPath + ": " +
           std::strerror(errno);
    return false;
  }

  SolverPoolOptions PO;
  PO.PoolSize = Opts.PoolSize;
  PO.JobDeadlineSec = Opts.JobDeadlineSec;
  PO.MaxAttempts = Opts.MaxAttempts;
  PO.BackoffBaseSec = Opts.BackoffBaseSec;
  PO.BackoffCapSec = Opts.BackoffCapSec;
  PO.BreakerFailures = Opts.BreakerFailures;
  PO.QuarantineSec = Opts.QuarantineSec;
  PO.Seed = Opts.Seed;
  PO.SmtTimeoutMs = Opts.SmtTimeoutMs;
  PO.CertTimeoutMs = Opts.CertTimeoutMs;
  PO.Faults = Opts.Faults;
  PO.AtForkChild = [this] { closeFdsInForkedChild(); };
  if (!Pool.start(PO, Err))
    return false;

  Inited = true;
  return true;
}

ServeServer::Conn *ServeServer::connById(uint64_t Id) {
  for (Conn &Cn : Conns)
    if (Cn.Id == Id && Cn.Fd >= 0)
      return &Cn;
  return nullptr;
}

void ServeServer::dropConn(size_t Idx) {
  ::close(Conns[Idx].Fd);
  Conns.erase(Conns.begin() + static_cast<long>(Idx));
  ++C.Disconnects;
}

void ServeServer::acceptPending() {
  for (;;) {
    // Nonblocking: replies buffer + drain on POLLOUT, never block.
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return; // EAGAIN (or transient) — next tick.
    if (Conns.size() >= Opts.MaxConns) {
      ::close(Fd); // over the connection cap: refuse by closing.
      continue;
    }
    Conn Cn;
    Cn.Id = NextConnId++;
    Cn.Fd = Fd;
    Conns.push_back(std::move(Cn));
    ++C.Accepted;
  }
}

bool ServeServer::flushConn(Conn &Cn) {
  // Reclaim the sent prefix before it dominates the buffer.
  if (Cn.OutOff > (1u << 20) || Cn.OutOff > Cn.Out.size() / 2) {
    Cn.Out.erase(Cn.Out.begin(), Cn.Out.begin() + static_cast<long>(Cn.OutOff));
    Cn.OutOff = 0;
  }
  while (Cn.OutOff < Cn.Out.size()) {
    ssize_t W = ::send(Cn.Fd, Cn.Out.data() + Cn.OutOff,
                       Cn.Out.size() - Cn.OutOff, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        // The client is not reading right now: keep the tail buffered
        // and let POLLOUT resume it — unless the backlog is past the
        // cap, in which case the connection is condemned, not the loop.
        return Cn.Out.size() - Cn.OutOff <= Opts.MaxConnOutBytes;
      return false; // dead peer.
    }
    Cn.OutOff += static_cast<size_t>(W);
  }
  Cn.Out.clear();
  Cn.OutOff = 0;
  return true;
}

bool ServeServer::sendFrame(Conn &Cn, dist::MsgType Type) {
  if (Cn.Fd < 0)
    return false; // already condemned earlier in this burst.
  Cn.Writer.frameInto(Type, &Cn.Out);
  if (flushConn(Cn))
    return true;
  Cn.Fd = -Cn.Fd - 1; // dead or not-reading; reaped on the next sweep.
  return false;
}

bool ServeServer::sendOk(Conn &Cn, const OkReply &R) {
  // Each encode*Reply writes its own ReplyKind tag as the first byte.
  dist::WireWriter &P = Cn.Writer.payload();
  switch (R.Kind) {
  case ReplyKind::Synth:
    encodeSynthReply(R.Synth, P);
    break;
  case ReplyKind::Run:
    encodeRunReply(R.Run, P);
    break;
  case ReplyKind::Certify:
    encodeCertifyReply(R.Certify, P);
    break;
  case ReplyKind::Stats:
    encodeStatsReply(R.Stats, P);
    break;
  }
  return sendFrame(Cn, dist::MsgType::ReplyOk);
}

bool ServeServer::sendErr(Conn &Cn, ErrCode Code, const std::string &Msg,
                          uint32_t RetryAfterMs) {
  if (Cn.Fd < 0)
    return false;
  ErrReply E;
  E.Code = Code;
  E.RetryAfterMs = RetryAfterMs;
  E.Message = Msg;
  encodeErrReply(E, Cn.Writer.payload());
  return sendFrame(Cn, dist::MsgType::ReplyErr);
}

bool ServeServer::buildSynthReply(const CacheEntry &E,
                                  const lang::SerialProgram &Req,
                                  bool CacheHit, SynthReply *Out) {
  std::string Err;
  lang::SerialProgram Cached;
  if (!parseProgramText(E.ProgramText, &Cached, &Err))
    return false; // a corrupt-but-parsing journal entry: treat as miss.
  synth::ParallelPlan Plan;
  if (!parsePlanText(E.PlanText, Cached, &Plan, &Err))
    return false;
  synth::ParallelPlan Rebound;
  if (!rebindPlanToProgram(Plan, Cached, Req, &Rebound))
    return false;

  Out->CacheHit = CacheHit ? 1 : 0;
  Out->Key = keyToHex(E.Key);
  Out->Group = E.Group;
  Out->PlanText = printPlanText(Rebound);
  Out->Description = Rebound.describe(Req);
  if (!Req.State.hasBag()) {
    std::vector<std::string> Inputs;
    for (const lang::Field &F : Req.State.fields())
      Inputs.push_back(F.Name);
    Inputs.push_back(lang::inputVarName());
    Out->Bytecode = disassembleBytecode(
        ir::BytecodeFunction::compile(Req.Step, Inputs).optimized());
  } else {
    Out->Bytecode = "(bag program: native distinct-set kernel)";
  }
  CertWire W;
  Out->Cert = certWireFromName(E.Cert, &W) ? W : CertWire::NotRun;
  Out->SolveSeconds = E.SolveSeconds;
  return true;
}

void ServeServer::handleSynthLike(Conn &Cn, const std::string &Text,
                                  ReplyKind Kind) {
  lang::SerialProgram Prog;
  std::string Err;
  if (!parseProgramText(Text, &Prog, &Err)) {
    ++C.BadRequests;
    sendErr(Cn, ErrCode::BadRequest, Err);
    return;
  }
  uint64_t Key = canonicalProgramHash(Prog);

  if (const CacheEntry *E = Cache.get(Key)) {
    OkReply R;
    if (Kind == ReplyKind::Certify) {
      R.Kind = ReplyKind::Certify;
      R.Certify.CacheHit = 1;
      R.Certify.Key = keyToHex(Key);
      R.Certify.Group = E->Group;
      CertWire W;
      R.Certify.Cert =
          certWireFromName(E->Cert, &W) ? W : CertWire::NotRun;
      ++C.CacheHits;
      sendOk(Cn, R);
      return;
    }
    R.Kind = ReplyKind::Synth;
    if (buildSynthReply(*E, Prog, /*CacheHit=*/true, &R.Synth)) {
      ++C.CacheHits;
      sendOk(Cn, R);
      return;
    }
    // Unreboundable entry (collision or corruption): fall through and
    // solve honestly.
  }
  ++C.CacheMisses;

  auto NegIt = Negative.find(Key);
  if (NegIt != Negative.end()) {
    if (NegIt->second.Expiry.expired()) {
      // The failure verdict aged out: solve afresh, in case the cause
      // was environmental rather than "no plan exists".
      Negative.erase(NegIt);
    } else {
      ++C.NegativeHits;
      sendErr(Cn, ErrCode::SynthFailed, NegIt->second.Reason);
      return;
    }
  }

  uint32_t RetryMs = 0;
  if (Pool.quarantined(Key, &RetryMs)) {
    ++C.QuarantineRejects;
    sendErr(Cn, ErrCode::SolverUnavailable,
            "key quarantined after repeated solver crashes", RetryMs);
    return;
  }

  if (Opts.Drain.cancelled()) {
    ++C.ShedShutdown;
    sendErr(Cn, ErrCode::ShuttingDown, "server is draining", 0);
    return;
  }

  Waiter W;
  W.ConnId = Cn.Id;
  W.Kind = Kind;
  W.ProgramText = printProgramText(Prog);

  if (InFlight.count(Key)) {
    // Coalesce: someone is already solving this key; one job serves
    // every waiter.
    ++C.Coalesced;
    Waiters[Key].push_back(std::move(W));
    return;
  }

  if (Pool.pendingJobs() + Pool.inFlightJobs() >= Opts.HighWaterJobs) {
    // Graceful degradation: shed the solver-bound request, keep the
    // cheap ones flowing.
    ++C.ShedOverloaded;
    sendErr(Cn, ErrCode::Overloaded, "synthesis queue past high water",
            Opts.RetryAfterMs);
    return;
  }

  InFlight.insert(Key);
  InFlightText[Key] = W.ProgramText;
  Waiters[Key].push_back(std::move(W));
  Pool.submit(Key, InFlightText[Key]);
}

void ServeServer::handleRun(Conn &Cn, const dist::Frame &F) {
  RunReqMsg &Req = RunReq; // reused across requests; see Server.h.
  if (!decodeRunReq(F.Payload, &Req)) {
    ++C.BadRequests;
    sendErr(Cn, ErrCode::BadRequest, "undecodable run request");
    return;
  }
  lang::SerialProgram Prog;
  std::string Err;
  if (!parseProgramText(Req.Program, &Prog, &Err)) {
    ++C.BadRequests;
    sendErr(Cn, ErrCode::BadRequest, Err);
    return;
  }
  ++C.RunRequests;
  uint64_t Key = canonicalProgramHash(Prog);
  // The memo is keyed by an EXACT-text hash of the canonical printing
  // and every hit is verified against the stored text: a colliding key
  // must recompile, never silently execute the first comer's program.
  // (Alpha-variants thus memoize separately — correctness over sharing.)
  std::string CanonText = printProgramText(Prog);
  uint64_t MemoKey = std::hash<std::string>{}(CanonText);
  auto It = RunMemo.find(MemoKey);
  std::unique_ptr<RunEntry> Scratch;
  const RunEntry *E;
  if (It != RunMemo.end() && It->second->Text == CanonText) {
    E = It->second.get();
  } else if (It != RunMemo.end()) {
    // Text-hash collision: compile the requester's own program for this
    // request only; the occupied slot keeps its entry.
    Scratch = std::make_unique<RunEntry>(std::move(Prog), std::move(CanonText));
    E = Scratch.get();
  } else {
    if (RunMemo.size() >= Opts.RunMemoCap)
      RunMemo.clear(); // bounded memory beats clever eviction here.
    E = RunMemo
            .emplace(MemoKey, std::make_unique<RunEntry>(std::move(Prog),
                                                         std::move(CanonText)))
            .first->second.get();
  }
  const runtime::CompiledProgram &CP = E->Compiled;
  runtime::SegmentView Seg{Req.Data.data(), Req.Data.size()};
  OkReply R;
  R.Kind = ReplyKind::Run;
  R.Run.Output = CP.runSerial({Seg});
  R.Run.Tier = runtime::execTierName(CP.tier());
  R.Run.Key = keyToHex(Key);
  sendOk(Cn, R);
}

void ServeServer::handleStats(Conn &Cn) {
  ++C.StatsRequests;
  OkReply R;
  R.Kind = ReplyKind::Stats;
  R.Stats.Counters = counters();
  sendOk(Cn, R);
}

std::vector<std::pair<std::string, uint64_t>> ServeServer::counters() const {
  const SolverPool::Stats &P = Pool.stats();
  return {
      {"conns.accepted", C.Accepted},
      {"conns.dropped", C.Disconnects},
      {"req.bad", C.BadRequests},
      {"req.run", C.RunRequests},
      {"req.stats", C.StatsRequests},
      {"cache.size", Cache.size()},
      {"cache.hits", C.CacheHits},
      {"cache.misses", C.CacheMisses},
      {"cache.negative-hits", C.NegativeHits},
      {"cache.loaded-snapshot", Cache.loadedFromSnapshot()},
      {"cache.loaded-journal", Cache.loadedFromJournal()},
      {"cache.snapshots", C.Snapshots},
      {"synth.solved", C.Solved},
      {"synth.failed", C.SynthFailed},
      {"synth.coalesced", C.Coalesced},
      {"shed.overloaded", C.ShedOverloaded},
      {"shed.shutting-down", C.ShedShutdown},
      {"shed.quarantined", C.QuarantineRejects},
      {"pool.submitted", P.Submitted},
      {"pool.completed", P.Completed},
      {"pool.worker-deaths", P.WorkerDeaths},
      {"pool.deadline-kills", P.DeadlineKills},
      {"pool.retries", P.Retries},
      {"pool.exhausted", P.Exhausted},
      {"pool.breaker-trips", P.BreakerTrips},
      {"pool.respawns", P.Respawns},
      {"pool.live-workers", Pool.liveWorkers()},
      {"serve.draining", Opts.Drain.cancelled() ? 1u : 0u},
  };
}

void ServeServer::handleFrame(Conn &Cn, const dist::Frame &F) {
  switch (F.Type) {
  case dist::MsgType::SynthReq: {
    SynthReqMsg M;
    if (!decodeSynthReq(F.Payload, &M)) {
      ++C.BadRequests;
      sendErr(Cn, ErrCode::BadRequest, "undecodable synth request");
      return;
    }
    handleSynthLike(Cn, M.Program, ReplyKind::Synth);
    return;
  }
  case dist::MsgType::CertifyReq: {
    CertifyReqMsg M;
    if (!decodeCertifyReq(F.Payload, &M)) {
      ++C.BadRequests;
      sendErr(Cn, ErrCode::BadRequest, "undecodable certify request");
      return;
    }
    handleSynthLike(Cn, M.Program, ReplyKind::Certify);
    return;
  }
  case dist::MsgType::RunReq:
    handleRun(Cn, F);
    return;
  case dist::MsgType::StatsReq:
    handleStats(Cn);
    return;
  default:
    ++C.BadRequests;
    sendErr(Cn, ErrCode::BadRequest, "unexpected frame type");
    return;
  }
}

void ServeServer::serviceConn(Conn &Cn) {
  // Read and drain every complete frame; keep reading while a frame is
  // partly received and bytes are still arriving, so a large request
  // costs one POLLIN wakeup per socket-buffer load, not per 64 KiB.
  for (;;) {
    dist::RecvStatus S = Cn.Reader.fill(Cn.Fd);
    if (S == dist::RecvStatus::Eof || S == dist::RecvStatus::Error ||
        S == dist::RecvStatus::Corrupt) {
      Cn.Fd = -Cn.Fd - 1; // mark dead; reaped by the caller.
      return;
    }
    for (;;) {
      dist::RecvStatus N = Cn.Reader.next(&Incoming);
      if (N == dist::RecvStatus::NeedMore)
        break;
      if (N != dist::RecvStatus::Ok) {
        // Corrupt framing: the connection cannot be trusted any further.
        Cn.Fd = -Cn.Fd - 1;
        return;
      }
      handleFrame(Cn, Incoming);
      if (Incoming.Payload.capacity() > MaxKeptRequestBytes)
        Incoming.Payload = {};
      if (RunReq.Program.capacity() +
              RunReq.Data.capacity() * sizeof(int64_t) >
          MaxKeptRequestBytes)
        RunReq = {};
      if (Cn.Fd < 0)
        return; // a reply failed mid-burst; connection already condemned.
    }
    // EAGAIN, or a frame boundary: let the other connections have a turn.
    if (S == dist::RecvStatus::NeedMore || !Cn.Reader.midFrame())
      return;
  }
}

void ServeServer::replyToWaiters(uint64_t Key, const SolveOutcome &O) {
  auto WIt = Waiters.find(Key);
  std::vector<Waiter> Ws;
  if (WIt != Waiters.end()) {
    Ws = std::move(WIt->second);
    Waiters.erase(WIt);
  }
  InFlight.erase(Key);
  InFlightText.erase(Key);

  // A failed send condemns the connection inside sendFrame(); the reap
  // sweep collects it.
  for (const Waiter &W : Ws) {
    Conn *Cn = connById(W.ConnId);
    if (!Cn)
      continue; // waiter hung up mid-solve; the answer is cached anyway.
    switch (O.Outcome) {
    case SolveOutcome::Kind::Done: {
      if (!O.Done.Solved) {
        sendErr(*Cn, ErrCode::SynthFailed, O.Done.FailureReason);
        break;
      }
      const CacheEntry *E = Cache.get(Key);
      if (!E) { // journal append failed earlier; never claim durability.
        sendErr(*Cn, ErrCode::Internal, "cache journal write failed");
        break;
      }
      lang::SerialProgram Req;
      std::string Err;
      OkReply R;
      if (W.Kind == ReplyKind::Certify) {
        R.Kind = ReplyKind::Certify;
        R.Certify.CacheHit = 0;
        R.Certify.Key = keyToHex(Key);
        R.Certify.Group = E->Group;
        R.Certify.Cert = O.Done.Cert;
        sendOk(*Cn, R);
        break;
      }
      R.Kind = ReplyKind::Synth;
      if (parseProgramText(W.ProgramText, &Req, &Err) &&
          buildSynthReply(*E, Req, /*CacheHit=*/false, &R.Synth))
        sendOk(*Cn, R);
      else
        sendErr(*Cn, ErrCode::Internal, "reply construction failed");
      break;
    }
    case SolveOutcome::Kind::Exhausted:
      sendErr(*Cn, ErrCode::SolverUnavailable, O.FailureReason,
              Opts.RetryAfterMs);
      break;
    case SolveOutcome::Kind::Quarantined:
      sendErr(*Cn, ErrCode::SolverUnavailable, O.FailureReason,
              O.RetryAfterMs);
      break;
    }
  }
}

void ServeServer::maybeSnapshot() {
  if (Cache.journaledSinceSnapshot() < Opts.SnapshotEvery)
    return;
  std::string Err;
  if (Cache.snapshot(Opts.Faults, &Err))
    ++C.Snapshots;
  // A failed snapshot is not fatal: the journal still holds everything.
}

int ServeServer::run() {
  if (!Inited)
    return 1;
  std::vector<SolveOutcome> Outcomes;
  bool DrainClosed = false;

  for (;;) {
    if (Opts.Root.cancelled()) {
      // Hard stop: abandon in-flight work, but the journal already
      // holds every answer any client was ever given.
      Pool.shutdown(0.5);
      int Sig = signalExitCode();
      return Sig ? Sig : 0;
    }

    bool Draining = Opts.Drain.cancelled();
    if (Draining && !DrainClosed) {
      // Stop accepting; existing connections keep being served.
      ::close(ListenFd);
      ::unlink(Opts.SocketPath.c_str());
      ListenFd = -1;
      DrainClosed = true;
    }
    if (Draining && InFlight.empty() && Pool.pendingJobs() == 0 &&
        Pool.inFlightJobs() == 0) {
      // Drained: persist and leave cleanly.
      std::string Err;
      if (Cache.snapshot(Opts.Faults, &Err))
        ++C.Snapshots;
      Pool.shutdown(2.0);
      for (Conn &Cn : Conns)
        if (Cn.Fd >= 0) {
          flushConn(Cn); // best-effort tail flush; drain must not block.
          ::close(Cn.Fd);
        }
      Conns.clear();
      return 0;
    }

    std::vector<struct pollfd> Pfds;
    if (ListenFd >= 0)
      Pfds.push_back({ListenFd, POLLIN, 0});
    size_t ConnBase = Pfds.size();
    // Snapshot the count NOW: acceptPending() below appends to Conns,
    // and those new connections have no pollfd this tick — sweeping to
    // Conns.size() would read the solver-pool entries Pool.pollFds
    // appends after ours (or walk off the end of Pfds).
    const size_t NConns = Conns.size();
    for (Conn &Cn : Conns) {
      short Ev = POLLIN;
      if (Cn.OutOff < Cn.Out.size())
        Ev |= POLLOUT; // a slow reader's backlog wants draining.
      Pfds.push_back({Cn.Fd, Ev, 0});
    }
    Pool.pollFds(&Pfds);

    int Rc = ::poll(Pfds.data(), Pfds.size(), TickMs);
    if (Rc < 0 && errno != EINTR) {
      Pool.shutdown(0.5);
      return 1;
    }

    if (ListenFd >= 0 && (Pfds[0].revents & POLLIN))
      acceptPending();

    for (size_t I = 0; I != NConns; ++I) {
      short Re = Pfds[ConnBase + I].revents;
      if ((Re & POLLOUT) && Conns[I].Fd >= 0 && !flushConn(Conns[I]))
        Conns[I].Fd = -Conns[I].Fd - 1; // dead mid-drain; reap below.
      if ((Re & (POLLIN | POLLHUP | POLLERR)) && Conns[I].Fd >= 0)
        serviceConn(Conns[I]);
    }
    // Reap condemned connections (marked with a negative fd) AFTER the
    // sweep so the pollfd indices above stayed aligned.
    for (size_t I = Conns.size(); I-- > 0;) {
      if (Conns[I].Fd < 0) {
        Conns[I].Fd = -Conns[I].Fd - 1; // restore for close().
        dropConn(I);
      }
    }

    Outcomes.clear();
    Pool.pump(&Outcomes);
    for (const SolveOutcome &O : Outcomes) {
      if (O.Outcome == SolveOutcome::Kind::Done && O.Done.Solved) {
        // Commit BEFORE any reply: the journal line is the durability
        // point every client-visible answer sits behind.
        CacheEntry E;
        E.Key = O.Key;
        auto TIt = InFlightText.find(O.Key);
        E.ProgramText = TIt != InFlightText.end() ? TIt->second : "";
        E.PlanText = O.Done.PlanText;
        E.Group = O.Done.Group;
        E.Cert = certWireName(O.Done.Cert);
        E.SolveSeconds = O.Done.Seconds;
        E.Candidates = O.Done.Candidates;
        E.SmtChecks = O.Done.SmtChecks;
        if (Cache.put(E))
          ++C.Solved;
      } else if (O.Outcome == SolveOutcome::Kind::Done && !O.Done.Solved) {
        if (Negative.size() >= Opts.NegativeCap)
          Negative.clear(); // the RunMemoCap discipline: drop wholesale.
        Negative[O.Key] = {O.Done.FailureReason,
                           Deadline::after(Opts.NegativeTtlSec)};
        ++C.SynthFailed;
      }
      replyToWaiters(O.Key, O);
    }

    maybeSnapshot();
  }
}

} // namespace serve
} // namespace grassp
