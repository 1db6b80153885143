//===- tests/support_childproc_test.cpp - The fixed-slot process pool -----===//
//
// support/ChildProc with real forks, real signals and real sockets:
//
//   * a respawn refills the dead slot and leaves its siblings untouched
//   * the respawn budget counts failed spawns, and a dry pool stays dry
//   * reap decodes a real SIGKILL (WIFSIGNALED) apart from a real
//     _exit(137) (WIFEXITED)
//   * shutdown SIGKILLs a child that ignores its farewell at the shared
//     grace deadline
//   * closing one slot's parent end EOFs exactly that child: no sibling
//     holds a copy of it
//   * stopChild escalates from its signal to SIGKILL past the grace
//
//===----------------------------------------------------------------------===//

#include "support/Cancel.h"
#include "support/ChildProc.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <csignal>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace grassp;

namespace {

/// Echoes bytes until EOF, then exits 0.
void echoChild(int Fd) {
  char C;
  while (::read(Fd, &C, 1) == 1)
    if (::write(Fd, &C, 1) != 1)
      break;
}

bool echoes(const ChildPool &Pool, unsigned S) {
  char C = 'e';
  return ::write(Pool.fd(S), &C, 1) == 1 && ::read(Pool.fd(S), &C, 1) == 1 &&
         C == 'e';
}

/// True once \p Pid has exited, observed without reaping it.
bool exitedWithin(pid_t Pid, double Sec) {
  Deadline Until = Deadline::after(Sec);
  for (;;) {
    siginfo_t Info{};
    if (::waitid(P_PID, static_cast<id_t>(Pid), &Info,
                 WEXITED | WNOHANG | WNOWAIT) == 0 &&
        Info.si_pid == Pid)
      return true;
    if (Until.expired())
      return false;
    ::usleep(1000);
  }
}

} // namespace

TEST(ChildPool, RespawnRefillsTheSameSlotAndLeavesSiblingsAlone) {
  ChildPool Pool(3, 4, echoChild);
  ASSERT_EQ(Pool.fill(), (std::vector<unsigned>{0, 1, 2}));
  pid_t P0 = Pool.pid(0), P1 = Pool.pid(1), P2 = Pool.pid(2);
  int Fd0 = Pool.fd(0), Fd2 = Pool.fd(2);

  EXPECT_TRUE(waitStatusSignaled(Pool.reap(1, /*Kill=*/true)));
  EXPECT_FALSE(Pool.live(1));
  EXPECT_EQ(Pool.liveCount(), 2u);

  EXPECT_EQ(Pool.refill(), (std::vector<unsigned>{1}));
  EXPECT_EQ(Pool.respawnsLeft(), 3u);
  EXPECT_NE(Pool.pid(1), P1);
  EXPECT_EQ(Pool.pid(0), P0);
  EXPECT_EQ(Pool.pid(2), P2);
  EXPECT_EQ(Pool.fd(0), Fd0);
  EXPECT_EQ(Pool.fd(2), Fd2);
  for (unsigned S = 0; S != 3; ++S)
    EXPECT_TRUE(echoes(Pool, S)) << "slot " << S;
  // A full pool spends nothing.
  EXPECT_TRUE(Pool.refill().empty());
  EXPECT_EQ(Pool.respawnsLeft(), 3u);
}

TEST(ChildPool, FailedSpawnsUseBudgetAndADryPoolStaysDry) {
  ChildPool Pool(2, 3, echoChild);
  ASSERT_EQ(Pool.fill().size(), 2u);
  Pool.reap(0, /*Kill=*/true);
  Pool.reap(1, /*Kill=*/true);

  // No free descriptor: every socketpair fails before any fork.
  struct rlimit Old;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &Old), 0);
  struct rlimit Starved = Old;
  Starved.rlim_cur = 0;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Starved), 0);
  std::vector<unsigned> Forked = Pool.refill();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Old), 0);
  EXPECT_TRUE(Forked.empty());
  EXPECT_EQ(Pool.respawnsLeft(), 1u); // one unit per failed attempt.

  EXPECT_EQ(Pool.refill(), (std::vector<unsigned>{0})); // the last unit.
  EXPECT_EQ(Pool.respawnsLeft(), 0u);
  EXPECT_TRUE(Pool.refill().empty());
  EXPECT_EQ(Pool.liveCount(), 1u);
  EXPECT_TRUE(echoes(Pool, 0));

  // fill() sits outside the budget: the initial pool or a top-up.
  EXPECT_EQ(Pool.fill(), (std::vector<unsigned>{1}));
  EXPECT_EQ(Pool.liveCount(), 2u);
}

TEST(ChildPool, ReapTellsARealSigkillFromARealExit137) {
  ChildPool Pool(2, 0, [](int Fd) {
    char C;
    if (::read(Fd, &C, 1) == 1 && C == 'k')
      ::raise(SIGKILL);
    ::_exit(137);
  });
  ASSERT_EQ(Pool.fill().size(), 2u);
  ASSERT_EQ(::write(Pool.fd(0), "k", 1), 1);
  ASSERT_EQ(::write(Pool.fd(1), "x", 1), 1);

  int Killed = Pool.reap(0, /*Kill=*/false);
  int Exited = Pool.reap(1, /*Kill=*/false);
  EXPECT_TRUE(waitStatusSignaled(Killed));
  EXPECT_FALSE(waitStatusOk(Killed));
  EXPECT_EQ(describeWaitStatus(Killed), "killed by signal 9");
  EXPECT_FALSE(waitStatusSignaled(Exited));
  EXPECT_FALSE(waitStatusOk(Exited));
  EXPECT_EQ(describeWaitStatus(Exited), "exit 137");
  EXPECT_EQ(Pool.liveCount(), 0u);
}

TEST(ChildPool, ShutdownKillsAChildThatIgnoresItsFarewellAtTheDeadline) {
  ChildPool Pool(2, 0, [](int) {
    for (;;)
      ::pause();
  });
  ASSERT_EQ(Pool.fill().size(), 2u);
  pid_t P0 = Pool.pid(0), P1 = Pool.pid(1);
  unsigned Farewells = 0;
  Stopwatch W;
  Pool.shutdown(0.2, [&](int Fd) {
    ++Farewells;
    EXPECT_EQ(::write(Fd, "q", 1), 1);
  });
  double Sec = W.seconds();
  EXPECT_EQ(Farewells, 2u);
  // One shared deadline, not one per child.
  EXPECT_GE(Sec, 0.2);
  EXPECT_LT(Sec, 2.0);
  EXPECT_EQ(Pool.liveCount(), 0u);
  // Both reaped: no zombie left behind.
  EXPECT_EQ(::waitpid(P0, nullptr, WNOHANG), -1);
  EXPECT_EQ(::waitpid(P1, nullptr, WNOHANG), -1);
}

TEST(ChildPool, ShutdownReapsObedientChildrenWithoutWaitingOutTheGrace) {
  ChildPool Pool(3, 0, echoChild);
  ASSERT_EQ(Pool.fill().size(), 3u);
  Stopwatch W;
  Pool.shutdown(5.0, nullptr); // EOF alone ends an echo child.
  EXPECT_LT(W.seconds(), 2.0);
  EXPECT_EQ(Pool.liveCount(), 0u);
}

TEST(ChildPool, ClosingOneParentEndEofsExactlyThatChild) {
  ChildPool Pool(3, 0, echoChild);
  ASSERT_EQ(Pool.fill().size(), 3u);
  // Swap /dev/null in for slot 0's parent end: the socket end is closed
  // without a signal, and the slot's fd number stays valid for reap().
  int Null = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(Null, 0);
  ASSERT_EQ(::dup2(Null, Pool.fd(0)), Pool.fd(0));
  ::close(Null);

  bool Exited = exitedWithin(Pool.pid(0), 1.0);
  EXPECT_TRUE(Exited) << "a sibling still holds slot 0's socket open";
  int St = Pool.reap(0, /*Kill=*/!Exited);
  EXPECT_TRUE(waitStatusOk(St)) << describeWaitStatus(St);
  // The siblings never noticed.
  EXPECT_FALSE(exitedWithin(Pool.pid(1), 0.0));
  EXPECT_FALSE(exitedWithin(Pool.pid(2), 0.0));
  EXPECT_TRUE(echoes(Pool, 1));
  EXPECT_TRUE(echoes(Pool, 2));
}

TEST(StopChild, EscalatesToSigkillPastTheGrace) {
  pid_t Stubborn = ::fork();
  ASSERT_GE(Stubborn, 0);
  if (Stubborn == 0) {
    ::signal(SIGTERM, SIG_IGN);
    for (;;)
      ::pause();
  }
  pid_t Polite = ::fork();
  ASSERT_GE(Polite, 0);
  if (Polite == 0) {
    ::signal(SIGTERM, SIG_DFL);
    for (;;)
      ::pause();
  }
  // Let the stubborn child install its handler before the signal lands.
  ::usleep(50000);
  int St = stopChild(Polite, SIGTERM, 5.0);
  EXPECT_TRUE(waitStatusSignaled(St));
  EXPECT_EQ(describeWaitStatus(St), "killed by signal 15");
  St = stopChild(Stubborn, SIGTERM, 0.1);
  EXPECT_EQ(describeWaitStatus(St), "killed by signal 9");
  EXPECT_EQ(stopChild(Stubborn, SIGKILL, 0.1), -1); // already reaped.
}
