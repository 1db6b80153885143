//===- tests/support_signal_test.cpp - Signal source drain semantics ------==//
//
// Fork-based tests for the process-wide signal source (support/Cancel.h):
// once drain is armed, the FIRST SIGTERM fires only the drain token (the
// child exits 0 through its own clean path), SIGINT still hard-fires the
// root with exit 130, a SECOND SIGTERM hard-fires with 143, and SIGPIPE
// is ignored once any component asked for it. Each scenario runs in a
// forked child because the handlers and the watcher thread are
// process-global state that must not leak into other tests.
//
//===----------------------------------------------------------------------===//

#include "support/Cancel.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>

#include <sys/wait.h>
#include <unistd.h>

using namespace grassp;

namespace {

/// Forks; the child runs \p Body (which must _exit) while the parent
/// feeds it \p Sigs with small gaps, then reaps and returns the wait
/// status.
template <typename Fn>
int runChildWithSignals(Fn Body, std::initializer_list<int> Sigs) {
  // A pipe tells the parent the child finished arming its handlers —
  // signalling earlier would race the install.
  int Ready[2];
  EXPECT_EQ(::pipe(Ready), 0);
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::close(Ready[0]);
    Body(Ready[1]);
    ::_exit(99); // Body must not return.
  }
  ::close(Ready[1]);
  char B;
  EXPECT_EQ(::read(Ready[0], &B, 1), 1);
  ::close(Ready[0]);
  for (int Sig : Sigs) {
    ::usleep(100000); // let the watcher thread notice the previous one.
    ::kill(Pid, Sig);
  }
  int St = 0;
  EXPECT_EQ(::waitpid(Pid, &St, 0), Pid);
  return St;
}

void armAndSpin(int ReadyFd) {
  CancelToken Root = installSignalSource();
  CancelToken Drain = installDrainSignalSource();
  char B = 'r';
  (void)!::write(ReadyFd, &B, 1);
  Deadline Give = Deadline::after(15.0);
  while (!Give.expired()) {
    // A hard fire cancels drain too, root first: test drain, then the
    // root, so a hard fire landing between the two reads is not taken
    // for a graceful one.
    if (Drain.cancelled())
      ::_exit(Root.cancelled() ? signalExitCode() // hard: 128+sig.
                               : 0);              // graceful: clean exit.
    ::usleep(5000);
  }
  ::_exit(98); // neither token fired.
}

} // namespace

TEST(SignalDrain, FirstSigtermDrainsCleanExitZero) {
  int St = runChildWithSignals(armAndSpin, {SIGTERM});
  ASSERT_TRUE(WIFEXITED(St)) << St;
  EXPECT_EQ(WEXITSTATUS(St), 0);
}

TEST(SignalDrain, SigintStillHardFiresWith130) {
  int St = runChildWithSignals(armAndSpin, {SIGINT});
  ASSERT_TRUE(WIFEXITED(St)) << St;
  EXPECT_EQ(WEXITSTATUS(St), 130);
}

TEST(SignalDrain, SecondSigtermHardFiresWith143) {
  // The child ignores the drain token, simulating a service stuck mid
  // drain; the second SIGTERM must hard-fire the root.
  int St = runChildWithSignals(
      [](int ReadyFd) {
        CancelToken Root = installSignalSource();
        (void)installDrainSignalSource();
        char B = 'r';
        (void)!::write(ReadyFd, &B, 1);
        Deadline Give = Deadline::after(15.0);
        while (!Give.expired()) {
          if (Root.cancelled())
            ::_exit(signalExitCode());
          ::usleep(5000);
        }
        ::_exit(98);
      },
      {SIGTERM, SIGTERM});
  ASSERT_TRUE(WIFEXITED(St)) << St;
  EXPECT_EQ(WEXITSTATUS(St), 143);
}

TEST(SignalDrain, WithoutDrainArmedSigtermKeepsHardSemantics) {
  int St = runChildWithSignals(
      [](int ReadyFd) {
        CancelToken Root = installSignalSource();
        char B = 'r';
        (void)!::write(ReadyFd, &B, 1);
        Deadline Give = Deadline::after(15.0);
        while (!Give.expired()) {
          if (Root.cancelled())
            ::_exit(signalExitCode());
          ::usleep(5000);
        }
        ::_exit(98);
      },
      {SIGTERM});
  ASSERT_TRUE(WIFEXITED(St)) << St;
  EXPECT_EQ(WEXITSTATUS(St), 143);
}

TEST(SignalDrain, SigpipeIsIgnoredAfterAnyComponentAsks) {
  int St = runChildWithSignals(
      [](int ReadyFd) {
        ignoreSigpipe();
        char B = 'r';
        (void)!::write(ReadyFd, &B, 1);
        int P[2];
        if (::pipe(P) != 0)
          ::_exit(97);
        ::close(P[0]); // no reader: a write would raise SIGPIPE if armed.
        ssize_t N = ::write(P[1], "x", 1);
        ::_exit(N < 0 && errno == EPIPE ? 0 : 96);
      },
      {});
  ASSERT_TRUE(WIFEXITED(St)) << St;
  EXPECT_EQ(WEXITSTATUS(St), 0);
}
