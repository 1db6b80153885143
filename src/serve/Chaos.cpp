//===- serve/Chaos.cpp ---------------------------------------------------==//

#include "serve/Chaos.h"

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Workload.h"
#include "serve/Client.h"
#include "serve/ProgramText.h"
#include "serve/Server.h"
#include "support/Cancel.h"
#include "support/ChildProc.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace grassp {
namespace serve {

namespace {

/// Fast scan-group benchmarks: every one solves in well under a second,
/// so a chaos campaign gets through many solve/kill/retry cycles.
const char *const ChaosBenchmarks[] = {"count",   "sum",      "max_elem",
                                       "sum_even", "count_gt", "second_max"};

struct Answer {
  bool Negative = false;
  std::string Plan;
  std::string Group;
  std::string Cert;
  std::string Reason; ///< Negative: the failure message.
};

struct Campaign {
  ServeChaosOptions Opts;
  std::string Dir;
  std::string SocketPath;
  std::string CacheDir;
  pid_t ServerPid = -1;
  /// What the service answered, per benchmark name; every later answer
  /// must be bit-identical.
  std::map<std::string, Answer> Answers;
  uint64_t Requests = 0;
  uint64_t OkReplies = 0;
  uint64_t TypedErrors = 0;
  uint64_t Truncations = 0;
  uint64_t Divergences = 0;
  uint64_t ServiceDeaths = 0;
  /// The fault-sweep server's pool counters: proof that kills happened.
  uint64_t SolverDeaths = 0;
  uint64_t SolverRespawns = 0;
};

void note(const Campaign &C, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));
void note(const Campaign &C, const char *Fmt, ...) {
  if (!C.Opts.Verbose)
    return;
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
}

void diverge(Campaign &C, const std::string &What) {
  ++C.Divergences;
  std::fprintf(stderr, "DIVERGENCE: %s\n", What.c_str());
}

bool serverAlive(const Campaign &C) {
  return C.ServerPid > 0 && ::kill(C.ServerPid, 0) == 0;
}

/// Forks a server on the campaign's socket/cache paths. The child arms
/// its own injector (fault decisions replay from the campaign seed) and
/// installs the signal sources FRESH — the harness deliberately never
/// installs them in the parent, so the fork inherits pristine state.
pid_t forkServer(Campaign &C, bool WithFaults) {
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;

  // ---- child: the real server process ----
  static FaultInjector Inj(C.Opts.Seed);
  if (WithFaults) {
    FaultSpec Kill;
    Kill.Probability = C.Opts.KillPermille / 1000.0;
    Inj.arm(FaultSiteWorkerKill, Kill);
    FaultSpec Hang;
    Hang.Probability = C.Opts.HangPermille / 1000.0;
    Inj.arm(FaultSiteWorkerHang, Hang);
    if (C.Opts.TornEveryNth) {
      FaultSpec Torn;
      Torn.EveryNth = C.Opts.TornEveryNth;
      Inj.arm(FaultSiteSnapshotTorn, Torn);
    }
  }
  ServerOptions SO;
  SO.SocketPath = C.SocketPath;
  SO.CacheDir = C.CacheDir;
  SO.PoolSize = C.Opts.PoolSize;
  SO.SmtTimeoutMs = 10000;
  SO.CertTimeoutMs = 10000;
  // Tight enough to reap injected hangs within the campaign, with
  // honest headroom over the slowest real solve in the suite
  // (second_max: ~1.7s synth + certify).
  SO.JobDeadlineSec = 5.0;
  SO.MaxAttempts = 3;
  SO.BreakerFailures = 3;
  SO.QuarantineSec = 0.4;
  SO.BackoffBaseSec = 0.01;
  SO.BackoffCapSec = 0.1;
  SO.HighWaterJobs = 4;
  SO.SnapshotEvery = 3; // compact often: the torn-snapshot site must fire.
  SO.Seed = C.Opts.Seed;
  SO.Faults = WithFaults ? &Inj : nullptr;
  SO.Root = installSignalSource();
  SO.Drain = installDrainSignalSource();
  ServeServer Server;
  std::string Err;
  if (!Server.init(SO, &Err)) {
    std::fprintf(stderr, "server init failed: %s\n", Err.c_str());
    std::fflush(nullptr);
    ::_exit(9);
  }
  int Rc = Server.run();
  std::fflush(nullptr);
  ::_exit(Rc);
}

/// One synth round trip with retries across the service's typed
/// backpressure errors. Returns false on campaign-fatal failure.
bool synthUntilAnswer(Campaign &C, const std::string &Name,
                      const std::string &Text, Answer *Out, bool *WasHit) {
  Deadline Budget = Deadline::after(60.0);
  while (!Budget.expired()) {
    ServeClient Client;
    std::string Err;
    if (!Client.connect(C.SocketPath, 2.0, &Err)) {
      if (!serverAlive(C)) {
        ++C.ServiceDeaths;
        diverge(C, "server process died (connect: " + Err + ")");
        return false;
      }
      continue;
    }
    ClientReply R;
    ++C.Requests;
    if (!Client.synth(Text, &R)) {
      if (!serverAlive(C)) {
        ++C.ServiceDeaths;
        diverge(C, "server process died mid-request on " + Name);
        return false;
      }
      continue; // transient transport hiccup with a live server: retry.
    }
    if (R.IsOk) {
      ++C.OkReplies;
      Out->Negative = false;
      Out->Plan = R.Ok.Synth.PlanText;
      Out->Group = R.Ok.Synth.Group;
      Out->Cert = certWireName(R.Ok.Synth.Cert);
      if (WasHit)
        *WasHit = R.Ok.Synth.CacheHit != 0;
      return true;
    }
    ++C.TypedErrors;
    switch (R.Err.Code) {
    case ErrCode::SynthFailed:
      Out->Negative = true;
      Out->Reason = R.Err.Message;
      if (WasHit)
        *WasHit = false;
      return true;
    case ErrCode::Overloaded:
    case ErrCode::SolverUnavailable:
    case ErrCode::ShuttingDown: {
      // The contract: shed with a hint, never wrongly. Back off and
      // retry inside the budget.
      uint32_t Ms = R.Err.RetryAfterMs ? R.Err.RetryAfterMs : 50;
      ::usleep(std::min<uint32_t>(Ms, 300) * 1000);
      continue;
    }
    case ErrCode::BadRequest:
    case ErrCode::Internal:
      diverge(C, Name + ": unexpected error[" +
                     errCodeName(R.Err.Code) + "] " + R.Err.Message);
      return false;
    }
  }
  diverge(C, Name + ": no answer within the retry budget");
  return false;
}

void checkAnswer(Campaign &C, const std::string &Name, const Answer &Got) {
  auto It = C.Answers.find(Name);
  if (It == C.Answers.end()) {
    C.Answers[Name] = Got;
    return;
  }
  const Answer &Want = It->second;
  if (Want.Negative != Got.Negative)
    diverge(C, Name + ": answer flipped between solved and synth-failed");
  else if (!Got.Negative &&
           (Want.Plan != Got.Plan || Want.Group != Got.Group ||
            Want.Cert != Got.Cert))
    diverge(C, Name + ": answer not bit-identical\n  was: " + Want.Plan +
                   " [" + Want.Group + "/" + Want.Cert + "]\n  got: " +
                   Got.Plan + " [" + Got.Group + "/" + Got.Cert + "]");
}

/// Fire-and-forget synth: pushes the request frame and returns without
/// reading the reply, so the harness can SIGKILL the server mid-solve.
void sendSynthNoWait(Campaign &C, const std::string &Text) {
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, C.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return;
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) == 0) {
    SynthReqMsg M;
    M.Program = Text;
    dist::WireWriter W;
    encodeSynthReq(M, W);
    dist::writeFrame(Fd, dist::MsgType::SynthReq, W.bytes());
  }
  ::close(Fd);
}

//===--------------------------------------------------------------------===//
// Phases
//===--------------------------------------------------------------------===//

bool phaseFaultSweep(Campaign &C) {
  std::fprintf(stderr,
               "chaos --serve: fault sweep (%us, kill=%u‰ hang=%u‰ "
               "torn-every=%llu seed=%llu)\n",
               C.Opts.Seconds, C.Opts.KillPermille, C.Opts.HangPermille,
               (unsigned long long)C.Opts.TornEveryNth,
               (unsigned long long)C.Opts.Seed);
  C.ServerPid = forkServer(C, /*WithFaults=*/true);
  if (C.ServerPid < 0)
    return false;

  std::vector<const lang::SerialProgram *> Progs;
  std::vector<std::string> Texts;
  for (const char *Name : ChaosBenchmarks) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    if (!P)
      continue;
    Progs.push_back(P);
    Texts.push_back(printProgramText(*P));
  }

  Deadline Until = Deadline::after(C.Opts.Seconds);
  uint64_t Iter = 0;
  while (!Until.expired() && C.Divergences == 0) {
    size_t I = Iter % Progs.size();
    const lang::SerialProgram &P = *Progs[I];
    ++Iter;

    // Dead-client fault: a truncated frame then a hangup, every Nth.
    if (C.Opts.DisconnectEveryNth &&
        Iter % C.Opts.DisconnectEveryNth == 0) {
      ServeClient Trunc;
      std::string Err;
      if (Trunc.connect(C.SocketPath, 2.0, &Err) &&
          Trunc.sendTruncatedSynth(Texts[I]))
        ++C.Truncations;
      if (!serverAlive(C)) {
        ++C.ServiceDeaths;
        diverge(C, "server died on a truncated client frame");
        return false;
      }
    }

    Answer A;
    if (!synthUntilAnswer(C, P.Name, Texts[I], &A, nullptr))
      return false;
    checkAnswer(C, P.Name, A);

    // Every few iterations, fold a workload through the service and
    // compare with locally computed ground truth.
    if (Iter % 3 == 0) {
      std::vector<int64_t> Data =
          runtime::generateWorkload(P, 256, C.Opts.Seed + Iter);
      int64_t Want = lang::runSerial(P, Data);
      ServeClient Client;
      std::string Err;
      if (Client.connect(C.SocketPath, 2.0, &Err)) {
        ClientReply R;
        ++C.Requests;
        if (Client.run(Texts[I], Data, &R)) {
          if (!R.IsOk)
            diverge(C, P.Name + ": run rejected: " + R.Err.Message);
          else if (R.Ok.Run.Output != Want)
            diverge(C, P.Name + ": run output " +
                           std::to_string(R.Ok.Run.Output) +
                           " != serial ground truth " +
                           std::to_string(Want));
          else
            ++C.OkReplies;
        } else if (!serverAlive(C)) {
          ++C.ServiceDeaths;
          diverge(C, "server died during a run request");
          return false;
        }
      }
    }
  }

  // The recovery paths must really have run: read the pool's counters.
  ServeClient Probe;
  ClientReply Stats;
  std::string Err;
  if (Probe.connect(C.SocketPath, 2.0, &Err) && Probe.stats(&Stats) &&
      Stats.IsOk)
    for (const auto &KV : Stats.Ok.Stats.Counters) {
      if (KV.first == "pool.worker-deaths")
        C.SolverDeaths = KV.second;
      else if (KV.first == "pool.respawns")
        C.SolverRespawns = KV.second;
    }

  note(C, "  sweep: %llu requests, %llu ok, %llu typed errors, %llu "
          "truncations\n",
       (unsigned long long)C.Requests, (unsigned long long)C.OkReplies,
       (unsigned long long)C.TypedErrors, (unsigned long long)C.Truncations);
  return C.Divergences == 0;
}

bool phaseKillRestart(Campaign &C) {
  std::fprintf(stderr, "chaos --serve: kill -9 / warm-restart (%u cycles)\n",
               C.Opts.KillCycles);
  for (unsigned Cycle = 0; Cycle != C.Opts.KillCycles; ++Cycle) {
    // Push one more request in and SIGKILL while it may be mid-solve:
    // an uncommitted solve may be lost (it re-runs later); committed
    // entries may NOT be.
    if (serverAlive(C)) {
      const lang::SerialProgram *P =
          lang::findBenchmark(ChaosBenchmarks[Cycle % 6]);
      if (P)
        sendSynthNoWait(C, printProgramText(*P));
      ::usleep(20000);
      stopChild(C.ServerPid, SIGKILL, 5.0);
      C.ServerPid = -1;
      note(C, "  cycle %u: server SIGKILLed\n", Cycle);
    }

    // Warm restart on the same cache dir: every answer ever given must
    // come back as a CACHE HIT, bit-identical.
    C.ServerPid = forkServer(C, /*WithFaults=*/true);
    for (const auto &KV : C.Answers) {
      if (KV.second.Negative)
        continue; // negative answers are memory-only by design.
      const lang::SerialProgram *P = lang::findBenchmark(KV.first.c_str());
      if (!P)
        continue;
      Answer A;
      bool WasHit = false;
      if (!synthUntilAnswer(C, KV.first, printProgramText(*P), &A, &WasHit))
        return false;
      if (!WasHit)
        diverge(C, KV.first +
                       ": committed entry LOST across kill -9 + restart "
                       "(answered as a fresh solve, not a cache hit)");
      checkAnswer(C, KV.first, A);
    }
    if (C.Divergences)
      return false;
  }
  return true;
}

bool phaseDrain(Campaign &C) {
  std::fprintf(stderr, "chaos --serve: SIGTERM graceful drain\n");
  if (!serverAlive(C))
    C.ServerPid = forkServer(C, /*WithFaults=*/true);
  // One request to prove the server is up, then ask it to drain.
  const lang::SerialProgram *P = lang::findBenchmark(ChaosBenchmarks[0]);
  Answer A;
  if (!P || !synthUntilAnswer(C, P->Name, printProgramText(*P), &A, nullptr))
    return false;
  checkAnswer(C, P->Name, A);

  // Past 20s the drain is SIGKILLed, which fails the status check.
  int St = stopChild(C.ServerPid, SIGTERM, 20.0);
  C.ServerPid = -1;
  if (!waitStatusOk(St)) {
    diverge(C, "SIGTERM drain did not exit cleanly within 20s (" +
                   describeWaitStatus(St) + ")");
    return false;
  }
  struct stat Sb;
  if (::stat((C.CacheDir + "/cache.snap").c_str(), &Sb) != 0) {
    diverge(C, "drain left no cache snapshot behind");
    return false;
  }
  return true;
}

} // namespace

int serveChaosMain(const ServeChaosOptions &OptsIn) {
  Campaign C;
  C.Opts = OptsIn;
  if (C.Opts.WorkDir.empty()) {
    char Tmpl[] = "/tmp/grassp-serve-chaos-XXXXXX";
    const char *D = ::mkdtemp(Tmpl);
    if (!D) {
      std::fprintf(stderr, "error: mkdtemp failed\n");
      return 1;
    }
    C.Dir = D;
  } else {
    C.Dir = C.Opts.WorkDir;
    ::mkdir(C.Dir.c_str(), 0755);
  }
  C.SocketPath = C.Dir + "/serve.sock";
  C.CacheDir = C.Dir + "/cache";

  bool Ok = phaseFaultSweep(C) && phaseKillRestart(C) && phaseDrain(C);
  stopChild(C.ServerPid, SIGKILL, 5.0);

  std::fprintf(stderr,
               "chaos --serve: %llu requests, %llu ok, %llu typed errors, "
               "%llu truncated clients, %llu solver deaths, %llu solver "
               "respawns, %llu divergences, %llu service deaths -> %s\n",
               (unsigned long long)C.Requests,
               (unsigned long long)C.OkReplies,
               (unsigned long long)C.TypedErrors,
               (unsigned long long)C.Truncations,
               (unsigned long long)C.SolverDeaths,
               (unsigned long long)C.SolverRespawns,
               (unsigned long long)C.Divergences,
               (unsigned long long)C.ServiceDeaths,
               Ok && C.Divergences == 0 && C.ServiceDeaths == 0 ? "OK"
                                                                : "FAILED");
  return Ok && C.Divergences == 0 && C.ServiceDeaths == 0 ? 0 : 1;
}

} // namespace serve
} // namespace grassp
