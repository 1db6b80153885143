//===- support/ChildProc.cpp ----------------------------------------------==//

#include "support/ChildProc.h"

#include "support/Cancel.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace grassp {

namespace {

/// Blocking reap; -1 when \p Pid is not our child.
int waitFor(pid_t Pid) {
  int St = 0;
  while (::waitpid(Pid, &St, 0) < 0)
    if (errno != EINTR)
      return -1;
  return St;
}

/// Reaps \p Pid, polling until \p Grace passes, then SIGKILLs it.
int reapBy(pid_t Pid, const Deadline &Grace) {
  for (;;) {
    int St = 0;
    pid_t R = ::waitpid(Pid, &St, WNOHANG);
    if (R == Pid)
      return St;
    if (R < 0 && errno != EINTR)
      return -1;
    if (Grace.expired())
      break;
    ::usleep(1000);
  }
  ::kill(Pid, SIGKILL);
  return waitFor(Pid);
}

} // namespace

std::string describeWaitStatus(int St) {
  if (St == -1)
    return "could not run (system() failed)";
  if (WIFEXITED(St))
    return "exit " + std::to_string(WEXITSTATUS(St));
  if (WIFSIGNALED(St))
    return "killed by signal " + std::to_string(WTERMSIG(St));
  return "unknown wait status " + std::to_string(St);
}

bool waitStatusOk(int St) {
  return St != -1 && WIFEXITED(St) && WEXITSTATUS(St) == 0;
}

bool waitStatusSignaled(int St) { return St != -1 && WIFSIGNALED(St); }

int stopChild(pid_t Pid, int Sig, double GraceSec) {
  if (Pid <= 0)
    return -1;
  if (Sig != 0)
    ::kill(Pid, Sig);
  return reapBy(Pid, Deadline::after(GraceSec));
}

ChildPool::ChildPool(unsigned N, unsigned RespawnBudget, Body Main)
    : Slots(N), Budget(RespawnBudget), Main(std::move(Main)) {}

ChildPool::~ChildPool() { shutdown(/*GraceSec=*/0, nullptr); }

unsigned ChildPool::liveCount() const {
  unsigned N = 0;
  for (const Slot &Sl : Slots)
    if (Sl.Fd >= 0)
      ++N;
  return N;
}

bool ChildPool::spawn(unsigned S, std::string *Err) {
  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Sv) != 0) {
    if (Err)
      *Err = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    int E = errno;
    ::close(Sv[0]);
    ::close(Sv[1]);
    if (Err)
      *Err = std::string("fork: ") + std::strerror(E);
    return false;
  }
  if (Pid == 0) {
    // Child: keep only our own end, so a parent that closes any slot's
    // end (or dies) EOFs exactly the child behind it.
    ::close(Sv[0]);
    for (const Slot &Sib : Slots)
      if (Sib.Fd >= 0)
        ::close(Sib.Fd);
    Main(Sv[1]);
    ::_exit(0);
  }
  ::close(Sv[1]);
  Slots[S].Pid = Pid;
  Slots[S].Fd = Sv[0];
  return true;
}

std::vector<unsigned> ChildPool::fill(std::string *Err) {
  std::vector<unsigned> Forked;
  for (unsigned S = 0; S != slots(); ++S) {
    if (live(S))
      continue;
    if (!spawn(S, Err))
      break;
    Forked.push_back(S);
  }
  return Forked;
}

std::vector<unsigned> ChildPool::refill() {
  std::vector<unsigned> Forked;
  for (unsigned S = 0; S != slots() && Budget != 0; ++S) {
    if (live(S))
      continue;
    --Budget;
    if (spawn(S, nullptr))
      Forked.push_back(S);
  }
  return Forked;
}

int ChildPool::reap(unsigned S, bool Kill) {
  if (!live(S))
    return -1;
  Slot Sl = Slots[S];
  Slots[S] = Slot();
  // Kill before closing: a child that sees its socket close first may
  // exit 0 on its own, and its status would then not say it was killed.
  if (Kill)
    ::kill(Sl.Pid, SIGKILL);
  ::close(Sl.Fd);
  return waitFor(Sl.Pid);
}

std::vector<unsigned> ChildPool::readable(int TimeoutMs) const {
  std::vector<struct pollfd> Fds;
  std::vector<unsigned> Of;
  for (unsigned S = 0; S != slots(); ++S)
    if (live(S)) {
      Fds.push_back({Slots[S].Fd, POLLIN, 0});
      Of.push_back(S);
    }
  std::vector<unsigned> Ready;
  if (Fds.empty() || ::poll(Fds.data(), Fds.size(), TimeoutMs) <= 0)
    return Ready;
  for (size_t I = 0; I != Fds.size(); ++I)
    if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
      Ready.push_back(Of[I]);
  return Ready;
}

void ChildPool::shutdown(double GraceSec,
                         const std::function<void(int Fd)> &Farewell) {
  std::vector<pid_t> Pids;
  for (Slot &Sl : Slots) {
    if (Sl.Fd < 0)
      continue;
    if (Farewell)
      Farewell(Sl.Fd);
    // Closing our end EOFs a reading child even if it never reads the
    // farewell.
    ::close(Sl.Fd);
    Pids.push_back(Sl.Pid);
    Sl = Slot();
  }
  Deadline Grace = Deadline::after(GraceSec);
  for (pid_t Pid : Pids)
    reapBy(Pid, Grace);
}

} // namespace grassp
