//===- tests/serve_smoke.cpp - End-to-end grassp serve smoke --------------==//
//
// Each test forks a real ServeServer (socket + cache in a fresh temp
// dir) and talks to it with ServeClient. The harness process installs
// NO signal sources — each forked server child arms its own, so SIGTERM
// sent to the child exercises the genuine drain path. Covered:
//
//   * miss -> solved, hit -> bit-identical answer with zero solver work
//   * RunReq output == the serial interpreter on the same workload
//   * a client that sends a truncated frame and hangs up kills nothing
//   * overload sheds synth misses with error[overloaded] + retry-after
//     while cache hits and stats keep flowing
//   * unparsable program -> error[bad-request], connection stays usable
//   * SIGTERM -> drain: exit 0 and a compacted cache.snap on disk
//   * kill -9 then warm restart: a committed entry is re-served as a
//     hit, identical to the answer the first incarnation gave
//   * a solver job larger than a socket buffer reaches its worker
//   * each solver worker holds only its own end of the pool's sockets
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Workload.h"
#include "serve/Client.h"
#include "serve/ProgramText.h"
#include "serve/Server.h"
#include "support/Cancel.h"
#include "support/ChildProc.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace grassp;

namespace {

std::string benchText(const char *Name) {
  const lang::SerialProgram *P = lang::findBenchmark(Name);
  EXPECT_NE(P, nullptr) << Name;
  return serve::printProgramText(*P);
}

/// One forked server over a private temp dir. The child installs its
/// own signal sources, so signals sent at its pid drive the real drain
/// and hard-stop paths without touching the gtest process.
struct SmokeServer {
  std::string Dir;
  std::string Socket;
  std::string CacheDir;
  pid_t Pid = -1;

  SmokeServer() {
    char Tmpl[] = "/tmp/grassp-smoke-XXXXXX";
    const char *D = ::mkdtemp(Tmpl);
    EXPECT_NE(D, nullptr);
    Dir = D ? D : "/tmp";
    Socket = Dir + "/serve.sock";
    CacheDir = Dir + "/cache";
  }

  ~SmokeServer() { stop(SIGKILL); }

  void start(size_t HighWaterJobs = 8, uint64_t SnapshotEvery = 2) {
    ::unlink(Socket.c_str());
    Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid != 0)
      return;
    serve::ServerOptions SO;
    SO.SocketPath = Socket;
    SO.CacheDir = CacheDir;
    SO.PoolSize = 1;
    SO.SmtTimeoutMs = 15000;
    SO.CertTimeoutMs = 15000;
    SO.JobDeadlineSec = 30.0;
    SO.HighWaterJobs = HighWaterJobs;
    SO.SnapshotEvery = SnapshotEvery;
    SO.Root = installSignalSource();
    SO.Drain = installDrainSignalSource();
    serve::ServeServer Server;
    std::string Err;
    if (!Server.init(SO, &Err))
      ::_exit(9);
    ::_exit(Server.run());
  }

  bool alive() const { return Pid > 0 && ::kill(Pid, 0) == 0; }

  /// Signals and reaps (SIGKILL past \p TimeoutSec); returns the wait
  /// status.
  int stop(int Sig, double TimeoutSec = 20.0) {
    int St = stopChild(Pid, Sig, TimeoutSec);
    Pid = -1;
    return St;
  }

  bool connect(serve::ServeClient &C) {
    std::string Err;
    bool Ok = C.connect(Socket, 10.0, &Err);
    EXPECT_TRUE(Ok) << Err;
    return Ok;
  }
};

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// A bare blocking socket to the server — for clients that misbehave in
/// ways ServeClient never would (sending forever without reading).
int rawConnect(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

TEST(ServeSmoke, MissSolvesThenHitIsBitIdentical) {
  SmokeServer S;
  S.start();
  serve::ServeClient C;
  ASSERT_TRUE(S.connect(C));

  std::string Text = benchText("count");
  serve::ClientReply Miss;
  ASSERT_TRUE(C.synth(Text, &Miss));
  ASSERT_TRUE(Miss.IsOk) << describeReply(Miss);
  EXPECT_EQ(Miss.Ok.Synth.CacheHit, 0);
  EXPECT_FALSE(Miss.Ok.Synth.PlanText.empty());
  EXPECT_FALSE(Miss.Ok.Synth.Group.empty());

  serve::ClientReply Hit;
  ASSERT_TRUE(C.synth(Text, &Hit));
  ASSERT_TRUE(Hit.IsOk) << describeReply(Hit);
  EXPECT_EQ(Hit.Ok.Synth.CacheHit, 1);
  EXPECT_EQ(Hit.Ok.Synth.Key, Miss.Ok.Synth.Key);
  EXPECT_EQ(Hit.Ok.Synth.PlanText, Miss.Ok.Synth.PlanText);
  EXPECT_EQ(Hit.Ok.Synth.Group, Miss.Ok.Synth.Group);
  EXPECT_EQ(Hit.Ok.Synth.Cert, Miss.Ok.Synth.Cert);
}

TEST(ServeSmoke, RunMatchesSerialInterpreter) {
  SmokeServer S;
  S.start();
  serve::ServeClient C;
  ASSERT_TRUE(S.connect(C));

  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  std::vector<int64_t> Data = runtime::generateWorkload(*P, 2048, 7);
  serve::ClientReply R;
  ASSERT_TRUE(C.run(serve::printProgramText(*P), Data, &R));
  ASSERT_TRUE(R.IsOk) << describeReply(R);
  EXPECT_EQ(R.Ok.Run.Output, lang::runSerial(*P, Data));
  EXPECT_FALSE(R.Ok.Run.Tier.empty());
}

TEST(ServeSmoke, DeadClientMidFrameKillsNothing) {
  SmokeServer S;
  S.start();
  std::string Text = benchText("count");

  serve::ServeClient Dead;
  ASSERT_TRUE(S.connect(Dead));
  EXPECT_TRUE(Dead.sendTruncatedSynth(Text));

  // The service must shrug: the next client gets a full answer.
  serve::ServeClient C;
  ASSERT_TRUE(S.connect(C));
  serve::ClientReply R;
  ASSERT_TRUE(C.synth(Text, &R));
  EXPECT_TRUE(R.IsOk) << describeReply(R);
  EXPECT_TRUE(S.alive());
}

TEST(ServeSmoke, NonReadingClientCannotWedgeServer) {
  SmokeServer S;
  S.start();

  // Prime the cache so the liveness probe below is solver-free.
  {
    serve::ServeClient C;
    ASSERT_TRUE(S.connect(C));
    serve::ClientReply R;
    ASSERT_TRUE(C.synth(benchText("count"), &R));
    ASSERT_TRUE(R.IsOk) << describeReply(R);
  }

  // A client that pipelines thousands of stats requests and never reads
  // a byte of reply: once the socket buffer fills, the replies must pile
  // into the server's per-connection backlog — not wedge the loop's
  // single thread inside write(2).
  int Raw = rawConnect(S.Socket);
  ASSERT_GE(Raw, 0);
  for (int I = 0; I != 2000; ++I)
    ASSERT_TRUE(dist::writeFrame(Raw, dist::MsgType::StatsReq, {}));

  // A well-behaved client still gets prompt answers on every path.
  serve::ServeClient C;
  ASSERT_TRUE(S.connect(C));
  serve::ClientReply Hit;
  ASSERT_TRUE(C.synth(benchText("count"), &Hit));
  ASSERT_TRUE(Hit.IsOk) << describeReply(Hit);
  EXPECT_EQ(Hit.Ok.Synth.CacheHit, 1);
  serve::ClientReply Stats;
  ASSERT_TRUE(C.stats(&Stats));
  EXPECT_TRUE(Stats.IsOk);
  EXPECT_TRUE(S.alive());
  ::close(Raw);
}

TEST(ServeSmoke, RunAlphaVariantsShareKeyButRunTheirOwnText) {
  SmokeServer S;
  S.start();
  serve::ServeClient C;
  ASSERT_TRUE(S.connect(C));

  // Alpha-renamed twins: same canonical key, distinct texts. The run
  // memo must compile and execute each requester's own program rather
  // than trusting the structural hash to pick one.
  const std::string T1 = "(program (name sum_a) (state (a int 0)) "
                         "(step (a (add a in))) (output a))";
  const std::string T2 = "(program (name sum_z) (state (z int 0)) "
                         "(step (z (add z in))) (output z))";
  lang::SerialProgram P1;
  std::string Err;
  ASSERT_TRUE(serve::parseProgramText(T1, &P1, &Err)) << Err;

  std::vector<int64_t> Data = runtime::generateWorkload(P1, 1024, 11);
  int64_t Want = lang::runSerial(P1, Data);

  serve::ClientReply R1, R2;
  ASSERT_TRUE(C.run(T1, Data, &R1));
  ASSERT_TRUE(R1.IsOk) << describeReply(R1);
  EXPECT_EQ(R1.Ok.Run.Output, Want);
  ASSERT_TRUE(C.run(T2, Data, &R2));
  ASSERT_TRUE(R2.IsOk) << describeReply(R2);
  EXPECT_EQ(R2.Ok.Run.Output, Want);
  EXPECT_EQ(R1.Ok.Run.Key, R2.Ok.Run.Key);
}

TEST(ServeSmoke, OverloadShedsMissesButServesHitsAndStats) {
  SmokeServer S;
  // Incarnation 1 commits `count` to the cache, then drains.
  S.start(/*HighWaterJobs=*/8);
  {
    serve::ServeClient C;
    ASSERT_TRUE(S.connect(C));
    serve::ClientReply R;
    ASSERT_TRUE(C.synth(benchText("count"), &R));
    ASSERT_TRUE(R.IsOk) << describeReply(R);
  }
  int St = S.stop(SIGTERM);
  ASSERT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0) << St;

  // Incarnation 2 admits NO synth work (high water zero): misses shed
  // with a typed error + retry-after, but hits and stats still flow.
  S.start(/*HighWaterJobs=*/0);
  serve::ServeClient C;
  ASSERT_TRUE(S.connect(C));

  serve::ClientReply Shed;
  ASSERT_TRUE(C.synth(benchText("sum"), &Shed));
  ASSERT_FALSE(Shed.IsOk);
  EXPECT_EQ(Shed.Err.Code, serve::ErrCode::Overloaded);
  EXPECT_GT(Shed.Err.RetryAfterMs, 0u);

  serve::ClientReply Hit;
  ASSERT_TRUE(C.synth(benchText("count"), &Hit));
  ASSERT_TRUE(Hit.IsOk) << describeReply(Hit);
  EXPECT_EQ(Hit.Ok.Synth.CacheHit, 1);

  serve::ClientReply Stats;
  ASSERT_TRUE(C.stats(&Stats));
  ASSERT_TRUE(Stats.IsOk);
  EXPECT_EQ(Stats.Ok.Kind, serve::ReplyKind::Stats);
  EXPECT_FALSE(Stats.Ok.Stats.Counters.empty());
}

TEST(ServeSmoke, BadRequestIsTypedAndNonFatal) {
  SmokeServer S;
  S.start();
  serve::ServeClient C;
  ASSERT_TRUE(S.connect(C));

  serve::ClientReply Bad;
  ASSERT_TRUE(C.synth("(this is not a program", &Bad));
  ASSERT_FALSE(Bad.IsOk);
  EXPECT_EQ(Bad.Err.Code, serve::ErrCode::BadRequest);

  // Same connection keeps working.
  serve::ClientReply R;
  ASSERT_TRUE(C.synth(benchText("count"), &R));
  EXPECT_TRUE(R.IsOk) << describeReply(R);
}

TEST(ServeSmoke, SigtermDrainsExitsZeroAndSnapshots) {
  SmokeServer S;
  S.start(/*HighWaterJobs=*/8, /*SnapshotEvery=*/1000); // journal only...
  {
    serve::ServeClient C;
    ASSERT_TRUE(S.connect(C));
    serve::ClientReply R;
    ASSERT_TRUE(C.synth(benchText("count"), &R));
    ASSERT_TRUE(R.IsOk) << describeReply(R);
  }
  int St = S.stop(SIGTERM);
  ASSERT_TRUE(WIFEXITED(St)) << St;
  EXPECT_EQ(WEXITSTATUS(St), 0);
  // ...so the snapshot on disk proves drain compacted before exiting.
  EXPECT_TRUE(fileExists(S.CacheDir + "/cache.snap"));
}

TEST(ServeSmoke, Kill9ThenWarmRestartReservesCommittedEntry) {
  SmokeServer S;
  S.start(/*HighWaterJobs=*/8, /*SnapshotEvery=*/1000); // recovery must
  std::string Text = benchText("max_elem");             // come from the
  serve::ClientReply First;                             // journal alone.
  {
    serve::ServeClient C;
    ASSERT_TRUE(S.connect(C));
    ASSERT_TRUE(C.synth(Text, &First));
    ASSERT_TRUE(First.IsOk) << describeReply(First);
  }
  // The reply was journaled before it was sent; kill -9 loses nothing.
  int St = S.stop(SIGKILL);
  ASSERT_TRUE(WIFSIGNALED(St)) << St;

  S.start();
  serve::ServeClient C;
  ASSERT_TRUE(S.connect(C));
  serve::ClientReply Again;
  ASSERT_TRUE(C.synth(Text, &Again));
  ASSERT_TRUE(Again.IsOk) << describeReply(Again);
  EXPECT_EQ(Again.Ok.Synth.CacheHit, 1);
  EXPECT_EQ(Again.Ok.Synth.Key, First.Ok.Synth.Key);
  EXPECT_EQ(Again.Ok.Synth.PlanText, First.Ok.Synth.PlanText);
  EXPECT_EQ(Again.Ok.Synth.Group, First.Ok.Synth.Group);
  EXPECT_EQ(Again.Ok.Synth.Cert, First.Ok.Synth.Cert);
}

TEST(SolverPool, LargeJobReachesTheWorkerInsteadOfKillingThePool) {
  // A 4 MiB job is far past any socket buffer: the send must wait for
  // the worker to read it, not fail with EAGAIN and be taken for a dead
  // worker (which used to burn the whole respawn budget in one pump).
  serve::SolverPool Pool;
  serve::SolverPoolOptions O;
  O.PoolSize = 1;
  O.MaxRespawns = 16;
  std::string Err;
  ASSERT_TRUE(Pool.start(O, &Err)) << Err;
  Pool.submit(1, std::string(4u << 20, 'x'));

  std::vector<serve::SolveOutcome> Out;
  Deadline Until = Deadline::after(10.0);
  while (Out.empty() && !Until.expired()) {
    std::vector<struct pollfd> Fds;
    Pool.pollFds(&Fds);
    ::poll(Fds.data(), Fds.size(), 10);
    Pool.pump(&Out);
  }
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Outcome, serve::SolveOutcome::Kind::Done);
  EXPECT_EQ(Out[0].Done.Solved, 0); // unparsable, answered by the worker.
  EXPECT_EQ(Pool.stats().WorkerDeaths, 0u);
  EXPECT_EQ(Pool.stats().Respawns, 0u);
  EXPECT_EQ(Pool.liveWorkers(), 1u);
}

/// Socket fds process \p Pid holds open.
int socketFds(pid_t Pid) {
  std::string Dir = "/proc/" + std::to_string(Pid) + "/fd";
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return -1;
  int N = 0;
  while (struct dirent *E = ::readdir(D)) {
    char Buf[64];
    ssize_t L = ::readlink((Dir + "/" + E->d_name).c_str(), Buf, sizeof(Buf));
    if (L > 0 &&
        std::string(Buf, static_cast<size_t>(L)).rfind("socket:", 0) == 0)
      ++N;
  }
  ::closedir(D);
  return N;
}

/// This process's live children, from /proc/<pid>/stat.
std::vector<pid_t> childPids() {
  std::vector<pid_t> Kids;
  DIR *D = ::opendir("/proc");
  while (struct dirent *E = D ? ::readdir(D) : nullptr) {
    std::ifstream In(std::string("/proc/") + E->d_name + "/stat");
    std::string Stat;
    if (!std::getline(In, Stat))
      continue;
    // "pid (comm) state ppid ...": comm may hold spaces and parens.
    size_t Close = Stat.rfind(')');
    int PPid = 0;
    char State = 0;
    if (Close != std::string::npos &&
        std::sscanf(Stat.c_str() + Close + 1, " %c %d", &State, &PPid) == 2 &&
        PPid == ::getpid() && State != 'Z')
      Kids.push_back(static_cast<pid_t>(std::atol(E->d_name)));
  }
  if (D)
    ::closedir(D);
  return Kids;
}

TEST(SolverPool, EachWorkerHoldsOnlyItsOwnSocket) {
  // A worker that inherits a sibling's parent end keeps that sibling's
  // channel open: closing it would no longer EOF the sibling.
  // Sockets this process held before the pool existed (say, from the
  // harness that launched it) are inherited by every child too.
  const int Own = socketFds(::getpid());
  serve::SolverPool Pool;
  serve::SolverPoolOptions O;
  O.PoolSize = 3;
  std::string Err;
  ASSERT_TRUE(Pool.start(O, &Err)) << Err;
  std::vector<pid_t> Kids = childPids();
  ASSERT_EQ(Kids.size(), 3u);
  // Each child drops the fds it does not own right after fork.
  const std::vector<int> Want(3, Own + 1);
  Deadline Until = Deadline::after(5.0);
  std::vector<int> Held;
  do {
    Held.clear();
    for (pid_t K : Kids)
      Held.push_back(socketFds(K));
  } while (Held != Want && !Until.expired() && ::usleep(1000) == 0);
  EXPECT_EQ(Held, Want);
}
