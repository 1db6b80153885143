//===- support/ChildProc.h - Fixed-slot pool of forked children ----------===//
//
// The one process lifecycle under the dist shard workers and the serve
// solver workers (DESIGN.md, "Process pool"). Each of a fixed number of
// slots is empty or holds one child on a socketpair. Slots never move,
// so callers keep per-slot state in arrays indexed by slot and no
// respawn can leave a reference dangling. A child closes every
// sibling's parent end, so closing a slot's fd EOFs exactly that child.
// Parent ends block on writes (a large frame waits for the reading
// child instead of failing with EAGAIN) and are close-on-exec; callers
// read the slots readable() reports. Recovery policy — requeue,
// speculation, breakers — stays with the callers.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SUPPORT_CHILDPROC_H
#define GRASSP_SUPPORT_CHILDPROC_H

#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace grassp {

/// Human-readable decoding of a std::system/waitpid status: "exit N",
/// "killed by signal N", or "could not run" for a -1 result.
std::string describeWaitStatus(int St);

/// True when \p St is a normal exit with status 0.
bool waitStatusOk(int St);

/// True when \p St records death by a signal.
bool waitStatusSignaled(int St);

/// Sends \p Sig to child \p Pid (none when 0), reaps it within
/// \p GraceSec, and SIGKILLs and reaps it past that. Returns the wait
/// status, or -1 when \p Pid is not a child of this process.
int stopChild(pid_t Pid, int Sig, double GraceSec);

class ChildPool {
public:
  /// What a child runs on its end of the socket. It should not return;
  /// if it does, the child _exit(0)s.
  using Body = std::function<void(int Fd)>;

  ChildPool(unsigned Slots, unsigned RespawnBudget, Body Main);
  /// SIGKILLs and reaps every live child.
  ~ChildPool();
  ChildPool(const ChildPool &) = delete;
  ChildPool &operator=(const ChildPool &) = delete;

  unsigned slots() const { return static_cast<unsigned>(Slots.size()); }
  bool live(unsigned S) const { return Slots[S].Fd >= 0; }
  /// The parent end of slot \p S (-1 when empty).
  int fd(unsigned S) const { return Slots[S].Fd; }
  pid_t pid(unsigned S) const { return Slots[S].Pid; }
  unsigned liveCount() const;
  unsigned respawnsLeft() const { return Budget; }

  /// Forks a child into every empty slot outside the respawn budget:
  /// the initial pool, or a top-up between runs. Stops at the first
  /// failure, with the reason in \p Err. Returns the slots forked.
  std::vector<unsigned> fill(std::string *Err = nullptr);

  /// The one respawn rule: every empty slot gets one attempt while
  /// budget lasts, and each attempt, forked or failed, uses one unit —
  /// a pool whose respawns keep failing runs dry instead of spinning.
  /// Returns the slots forked.
  std::vector<unsigned> refill();

  /// Empties slot \p S: SIGKILLs the child when \p Kill is set, closes
  /// the parent end, and waits for it. Returns the wait status (-1 when
  /// it could not be reaped).
  int reap(unsigned S, bool Kill);

  /// The live slots whose parent end is readable or hung up, waiting at
  /// most \p TimeoutMs for the first. Returns at once when none is live.
  std::vector<unsigned> readable(int TimeoutMs) const;

  /// Graceful teardown: \p Farewell (when set) writes each live child's
  /// goodbye, every parent end is closed, and every child is reaped by
  /// one shared deadline \p GraceSec from now; stragglers are SIGKILLed.
  void shutdown(double GraceSec, const std::function<void(int Fd)> &Farewell);

private:
  struct Slot {
    pid_t Pid = -1;
    int Fd = -1;
  };

  bool spawn(unsigned S, std::string *Err);

  std::vector<Slot> Slots;
  unsigned Budget;
  Body Main;
};

} // namespace grassp

#endif // GRASSP_SUPPORT_CHILDPROC_H
