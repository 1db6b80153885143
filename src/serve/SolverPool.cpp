//===- serve/SolverPool.cpp ----------------------------------------------==//

#include "serve/SolverPool.h"

#include "chc/Certify.h"
#include "runtime/Runner.h"
#include "serve/ProgramText.h"
#include "synth/Grassp.h"

#include <csignal>

#include <unistd.h>

namespace grassp {
namespace serve {

namespace {

CertWire certWireOf(chc::CertStatus S) {
  switch (S) {
  case chc::CertStatus::Certified:
    return CertWire::Certified;
  case chc::CertStatus::NotCertified:
    return CertWire::NotCertified;
  case chc::CertStatus::Unknown:
    return CertWire::Unknown;
  case chc::CertStatus::Unsupported:
    return CertWire::Unsupported;
  }
  return CertWire::Unknown;
}

/// The fault key for one (key, attempt) pair: pure, so a chaos run
/// replays the exact same kill/hang pattern from its seed.
uint64_t attemptFaultKey(uint64_t Key, unsigned Attempt) {
  uint64_t X = Key + 0x9e3779b97f4a7c15ULL * (Attempt + 1);
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  return X;
}

} // namespace

//===----------------------------------------------------------------------===//
// The worker child
//===----------------------------------------------------------------------===//

[[noreturn]] void solverWorkerMain(int Fd, FaultInjector *Faults) {
  ignoreSigpipe();
  dist::FrameWriter Writer;
  for (;;) {
    dist::Frame F;
    dist::RecvStatus S = dist::readFrameBlocking(Fd, &F);
    if (S != dist::RecvStatus::Ok)
      ::_exit(0); // server gone or channel untrusted: clean end.
    if (F.Type == dist::MsgType::Shutdown)
      ::_exit(0);
    if (F.Type != dist::MsgType::SolveJob)
      continue; // stray frame; stay in lockstep.

    SolveJobMsg Job;
    if (!decodeSolveJob(F.Payload, &Job))
      ::_exit(0); // checksummed but undecodable: give up loudly.

    // The REAL faults, decided before any solver work so the server's
    // death handling sees a job-holding casualty.
    if (Faults) {
      if (Faults->shouldFailKeyed(FaultSiteWorkerKill, Job.FaultKey)) {
        ::raise(SIGKILL);
        ::_exit(137); // unreachable; belt and braces.
      }
      if (Faults->shouldFailKeyed(FaultSiteWorkerHang, Job.FaultKey)) {
        // Go silent holding the job: the pool's per-job deadline must
        // notice and SIGKILL us.
        for (;;)
          ::pause();
      }
    }

    SolveDoneMsg Done;
    Done.JobId = Job.JobId;
    Done.Key = Job.Key;
    try {
      lang::SerialProgram Prog;
      std::string Err;
      if (!parseProgramText(Job.Program, &Prog, &Err)) {
        Done.Solved = 0;
        Done.FailureReason = "unparsable program: " + Err;
      } else {
        synth::SynthOptions SO;
        SO.Bounds.SmtTimeoutMs = Job.SmtTimeoutMs;
        synth::SynthesisResult R = synth::synthesize(Prog, SO);
        Done.Seconds = R.SynthSeconds;
        Done.Candidates = R.CandidatesTried;
        Done.SmtChecks = R.SmtChecks;
        if (R.Success) {
          Done.Solved = 1;
          Done.Group = R.Group;
          Done.PlanText = printPlanText(R.Plan);
          chc::CertifyOptions CO;
          CO.TimeoutMs = Job.CertTimeoutMs;
          chc::CertifyOutcome C = chc::certify(Prog, R.Plan, CO);
          Done.Cert = certWireOf(C.Status);
        } else {
          Done.Solved = 0;
          Done.FailureReason =
              R.FailureReason.empty() ? "no plan found" : R.FailureReason;
        }
      }
    } catch (const std::exception &E) {
      Done.Solved = 0;
      Done.FailureReason = std::string("solver exception: ") + E.what();
    }

    encodeSolveDone(Done, Writer.payload());
    if (!Writer.send(Fd, dist::MsgType::SolveDone))
      ::_exit(0);
  }
}

//===----------------------------------------------------------------------===//
// The parent-side pool
//===----------------------------------------------------------------------===//

SolverPool::~SolverPool() { shutdown(0.5); }

bool SolverPool::start(const SolverPoolOptions &O, std::string *Err) {
  Opts = O;
  Workers.assign(Opts.PoolSize, Worker());
  // The child drops every server resource the owner registered (listen
  // socket, client fds, cache journal fd), then serves solves until
  // told otherwise.
  Children = std::make_unique<ChildPool>(
      static_cast<unsigned>(Opts.PoolSize), Opts.MaxRespawns, [this](int Fd) {
        if (Opts.AtForkChild)
          Opts.AtForkChild();
        solverWorkerMain(Fd, Opts.Faults);
      });
  if (Children->fill(Err).size() == Opts.PoolSize)
    return true;
  Children.reset();
  Workers.clear();
  return false;
}

uint64_t SolverPool::submit(uint64_t Key, const std::string &ProgramText) {
  Job J;
  J.JobId = NextJobId++;
  J.Key = Key;
  J.Program = ProgramText;
  J.PrevBackoff = Opts.BackoffBaseSec;
  Pending.push_back(std::move(J));
  ++Counters.Submitted;
  return Pending.back().JobId;
}

bool SolverPool::quarantined(uint64_t Key, uint32_t *RetryAfterMs) {
  auto It = Quarantine.find(Key);
  if (It == Quarantine.end())
    return false;
  if (It->second.expired()) {
    // Quarantine served: the key gets a fresh chance (and a fresh
    // breaker count — the next death starts the count over).
    Quarantine.erase(It);
    BreakerCount.erase(Key);
    return false;
  }
  if (RetryAfterMs) {
    double Sec = It->second.remainingSeconds();
    *RetryAfterMs = static_cast<uint32_t>(Sec * 1000.0) + 1;
  }
  return true;
}

void SolverPool::pollFds(std::vector<struct pollfd> *Out) const {
  for (unsigned Slot = 0; Slot != Workers.size(); ++Slot)
    if (Children->live(Slot))
      Out->push_back({Children->fd(Slot), POLLIN, 0});
}

size_t SolverPool::idleWorkers() const {
  size_t N = 0;
  for (unsigned Slot = 0; Slot != Workers.size(); ++Slot)
    if (Children->live(Slot) && !Workers[Slot].Busy)
      ++N;
  return N;
}

size_t SolverPool::inFlightJobs() const {
  size_t N = 0;
  for (const Worker &W : Workers)
    if (W.Busy)
      ++N;
  return N;
}

void SolverPool::failAttempt(Job J, const std::string &Reason,
                             std::vector<SolveOutcome> *Out) {
  ++Counters.WorkerDeaths;
  unsigned &Fails = BreakerCount[J.Key];
  ++Fails;
  if (Fails >= Opts.BreakerFailures) {
    // Circuit broken: quarantine the key and tell the waiters. The
    // count stays until the quarantine expires (see quarantined()).
    Quarantine[J.Key] = Deadline::after(Opts.QuarantineSec);
    ++Counters.BreakerTrips;
    SolveOutcome O;
    O.JobId = J.JobId;
    O.Key = J.Key;
    O.Outcome = SolveOutcome::Kind::Quarantined;
    O.FailureReason = Reason + " (" + std::to_string(Fails) +
                      " consecutive solver deaths; key quarantined)";
    O.RetryAfterMs = static_cast<uint32_t>(Opts.QuarantineSec * 1000.0) + 1;
    Out->push_back(std::move(O));
    return;
  }
  if (J.Attempt + 1 < Opts.MaxAttempts) {
    // Requeue with decorrelated jitter so correlated deaths spread out.
    ++Counters.Retries;
    J.PrevBackoff = runtime::decorrelatedBackoff(
        Opts.BackoffBaseSec, Opts.BackoffCapSec, J.PrevBackoff, Opts.Seed,
        attemptFaultKey(J.Key, J.Attempt));
    ++J.Attempt;
    J.ReadyAt = Deadline::after(J.PrevBackoff);
    Pending.push_back(std::move(J));
    return;
  }
  ++Counters.Exhausted;
  SolveOutcome O;
  O.JobId = J.JobId;
  O.Key = J.Key;
  O.Outcome = SolveOutcome::Kind::Exhausted;
  O.FailureReason = Reason + " after " + std::to_string(J.Attempt + 1) +
                    " attempts";
  Out->push_back(std::move(O));
}

void SolverPool::handleWorkerDown(unsigned Slot,
                                  std::vector<SolveOutcome> *Out) {
  // A worker with a corrupt stream or a blown deadline may still be
  // running, so kill before reaping.
  int St = Children->reap(Slot, /*Kill=*/true);
  Worker &W = Workers[Slot];
  if (W.Busy)
    failAttempt(std::move(W.Current), "solver worker " + describeWaitStatus(St),
                Out);
  W = Worker();
}

void SolverPool::dispatchReady(std::vector<SolveOutcome> *Out) {
  for (unsigned Slot = 0; Slot != Workers.size() && !Pending.empty(); ++Slot) {
    Worker &W = Workers[Slot];
    if (!Children->live(Slot) || W.Busy)
      continue;
    // Find the first pending job whose backoff has elapsed.
    size_t Pick = Pending.size();
    for (size_t J = 0; J != Pending.size(); ++J) {
      if (Pending[J].ReadyAt.isNever() || Pending[J].ReadyAt.expired()) {
        Pick = J;
        break;
      }
    }
    if (Pick == Pending.size())
      return; // everything queued is still backing off.
    Job J = std::move(Pending[Pick]);
    Pending.erase(Pending.begin() + static_cast<long>(Pick));

    SolveJobMsg Msg;
    Msg.JobId = J.JobId;
    Msg.Key = J.Key;
    // Fold the JobId in so a RE-SUBMISSION of a previously exhausted or
    // quarantined key redraws its fault fate: without it, a key whose
    // (seed, key, 0..2) draws all land on "kill" can never solve, no
    // matter how often clients retry. JobIds are assigned in submit
    // order, so a chaos campaign still replays exactly from its seed.
    Msg.FaultKey = attemptFaultKey(J.Key ^ (J.JobId * 0x9e3779b97f4a7c15ULL),
                                   J.Attempt);
    Msg.SmtTimeoutMs = Opts.SmtTimeoutMs;
    Msg.CertTimeoutMs = Opts.CertTimeoutMs;
    Msg.Program = J.Program;
    encodeSolveJob(Msg, W.Writer.payload());
    // The fd blocks, and an idle worker is blocked reading, so a send
    // of any size completes unless the worker is gone.
    if (!W.Writer.send(Children->fd(Slot), dist::MsgType::SolveJob)) {
      // Requeue the job unscathed; the slot is refilled next pump.
      Pending.push_front(std::move(J));
      handleWorkerDown(Slot, Out);
      continue;
    }
    W.Busy = true;
    W.Current = std::move(J);
    W.JobDeadline = Deadline::after(Opts.JobDeadlineSec);
  }
}

void SolverPool::pump(std::vector<SolveOutcome> *Out) {
  if (!Children || ShutDown)
    return;

  // Deadline-blown hangs: SIGKILL, reap and fail the attempt right here.
  for (unsigned Slot = 0; Slot != Workers.size(); ++Slot)
    if (Workers[Slot].Busy && Workers[Slot].JobDeadline.expired()) {
      ++Counters.DeadlineKills;
      handleWorkerDown(Slot, Out);
    }

  // One read per worker with bytes or a hangup pending: the fds block,
  // so a worker is never read blind.
  for (unsigned Slot : Children->readable(/*TimeoutMs=*/0)) {
    Worker &W = Workers[Slot];
    dist::RecvStatus S = W.Reader.fill(Children->fd(Slot));
    bool Down = S != dist::RecvStatus::Ok && S != dist::RecvStatus::NeedMore;
    while (!Down) {
      dist::Frame F;
      S = W.Reader.next(&F);
      if (S == dist::RecvStatus::NeedMore)
        break;
      if (S != dist::RecvStatus::Ok) {
        Down = true; // corrupt framing: the worker cannot be trusted.
        break;
      }
      if (F.Type != dist::MsgType::SolveDone)
        continue;
      SolveDoneMsg Done;
      if (!decodeSolveDone(F.Payload, &Done)) {
        Down = true;
        break;
      }
      // A reply for a stale job (e.g. after a deadline kill raced the
      // answer) is dropped; the retry already owns the job id.
      if (!W.Busy || Done.JobId != W.Current.JobId)
        continue;
      ++Counters.Completed;
      BreakerCount.erase(Done.Key); // infrastructure healthy for this key.
      SolveOutcome O;
      O.JobId = Done.JobId;
      O.Key = Done.Key;
      O.Done = std::move(Done);
      O.Outcome = SolveOutcome::Kind::Done;
      Out->push_back(std::move(O));
      W.Busy = false;
      W.Current = Job();
    }
    if (Down)
      handleWorkerDown(Slot, Out);
  }

  // Keep the pool at strength: every empty slot gets one respawn
  // attempt per pump while the fork-bomb backstop lasts.
  Counters.Respawns += Children->refill().size();
  dispatchReady(Out);
}

void SolverPool::shutdown(double GraceSec) {
  if (!Children || ShutDown)
    return;
  ShutDown = true;
  Children->shutdown(GraceSec, [](int Fd) {
    dist::writeFrame(Fd, dist::MsgType::Shutdown, {});
  });
  Workers.assign(Workers.size(), Worker());
  Pending.clear();
}

} // namespace serve
} // namespace grassp
