//===- support/Cancel.h - Cooperative cancellation and deadlines ---------===//
//
// The primitive that turns the batch pipeline into something a service
// can deadline and shed: a CancelToken is a shared flag that layers poll
// at their cooperative points, linked parent->child so cancelling a
// whole run fires every task, attempt, and sleep spawned under it.
//
//  * CancelToken — copyable handle to shared cancel state. A
//    default-constructed token is *empty*: it never cancels and costs
//    nothing, so every API can take one by default without behavior
//    change. CancelToken::root() mints live state; child() links a
//    subordinate token that fires when the parent fires (but can also
//    be cancelled alone, e.g. one synthesis task of a batch).
//  * Deadline — an absolute steady-clock point. child(Deadline)
//    attaches one; cancelled() then reports true once it passes, and
//    every wait in this file caps itself at the deadline. Children
//    inherit the earliest deadline on their ancestor chain.
//  * sleepFor/waitCancelledFor — interruptible sleeps: they return
//    early the moment the token (or an ancestor) fires, which is what
//    keeps retry backoff and injected straggler stalls from pinning a
//    worker after the run is dead.
//  * onCancel — callbacks run exactly once when the token fires
//    (immediately when already fired). Callbacks run under the state's
//    callback lock: removeOnCancel() returning guarantees the callback
//    is not and will never be in flight, so a caller may free what the
//    callback touches. Callbacks must not call back into the token.
//
// Deadline expiry is *passive*: nothing fires callbacks when a deadline
// passes with nobody looking. Layers that need an active bound (the
// SMT solver) combine the token with the deadline's remaining budget.
//
// installSignalSource() arms a process-wide root token fired by the
// first SIGINT/SIGTERM. The signal handler only sets a sig_atomic_t; a
// small watcher thread (joined at exit — never detached) notices within
// ~20ms, fires the token, and restores the default handler so a second
// Ctrl-C hard-kills a stuck process the classic way.
//
// installDrainSignalSource() layers graceful shutdown on top for
// long-lived services: once armed, the FIRST SIGTERM fires only the
// returned drain token (finish in-flight work, snapshot, exit 0) and
// re-arms the handlers; SIGINT — unchanged — or a SECOND SIGTERM still
// fires the hard root token and restores SIG_DFL. Batch tools that
// never arm drain keep the historical exit-fast semantics.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SUPPORT_CANCEL_H
#define GRASSP_SUPPORT_CANCEL_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

namespace grassp {

namespace detail {
struct CancelState;
} // namespace detail

/// An absolute wall-clock bound on a piece of work. Default-constructed
/// deadlines never expire.
class Deadline {
public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;
  static Deadline never() { return Deadline(); }
  /// A deadline \p Seconds from now; Seconds <= 0 is already expired.
  static Deadline after(double Seconds);
  static Deadline at(Clock::time_point When);

  bool isNever() const { return Never; }
  bool expired() const { return !Never && Clock::now() >= When; }

  /// Seconds until expiry; +infinity when never, 0 when already past.
  double remainingSeconds() const;

  /// Remaining budget in whole milliseconds, clamped to [1, CapMs] —
  /// the shape SMT timeouts want. CapMs == 0 means "no cap": the
  /// remaining time alone (and 0 when the deadline never expires).
  unsigned remainingMs(unsigned CapMs = 0) const;

  /// The tighter of the two deadlines.
  Deadline earliest(const Deadline &O) const;

  /// The wait bound: min(When, Fallback) — Fallback itself when never.
  Clock::time_point timeOr(Clock::time_point Fallback) const {
    return Never || Fallback < When ? Fallback : When;
  }

private:
  bool Never = true;
  Clock::time_point When{};
};

/// Copyable handle to shared cooperative-cancellation state. Empty
/// tokens (default-constructed) never cancel; all operations on them
/// are cheap no-ops, so APIs take a token by value with a default.
class CancelToken {
public:
  CancelToken() = default;

  /// Mints a fresh, independent cancellation root.
  static CancelToken root();

  /// True when this token carries live state (can ever cancel).
  bool valid() const { return State != nullptr; }

  /// A token that fires when this one fires but can also be cancelled
  /// on its own; \p D (if given) is attached on top of any inherited
  /// deadline (the earliest wins). child() of an empty token returns a
  /// fresh root carrying just \p D — callers need not special-case.
  CancelToken child(Deadline D = Deadline()) const;

  /// Fires this token and every descendant. Idempotent; no-op on empty.
  void cancel() const;

  /// True once cancel() ran here or on an ancestor, or the effective
  /// deadline passed.
  bool cancelled() const;

  /// The effective (earliest inherited) deadline.
  Deadline deadline() const;

  /// Blocks until cancelled, at most \p Seconds. Returns cancelled().
  bool waitCancelledFor(double Seconds) const;

  /// Interruptible sleep: true when the full duration elapsed, false
  /// when cancellation (or deadline expiry) cut it short. An empty
  /// token degrades to a plain sleep.
  bool sleepFor(double Seconds) const;

  /// Registers \p Fn to run exactly once when the token fires; runs it
  /// inline right now when the token is already cancelled. Returns an
  /// id for removeOnCancel (0 from an empty token: nothing registered).
  uint64_t onCancel(std::function<void()> Fn) const;

  /// Unregisters a callback. On return the callback is guaranteed not
  /// to be running and never to run.
  void removeOnCancel(uint64_t Id) const;

private:
  explicit CancelToken(std::shared_ptr<detail::CancelState> S)
      : State(std::move(S)) {}

  std::shared_ptr<detail::CancelState> State;
};

/// Arms the process-wide SIGINT/SIGTERM cancellation source (idempotent;
/// only the first call installs) and returns its root token. Every
/// long-running subcommand derives its run token from this.
CancelToken installSignalSource();

/// Arms SIGTERM-initiated graceful drain on the same source (idempotent)
/// and returns the drain token: the first SIGTERM fires it — and ONLY
/// it — then re-arms the handlers; SIGINT or a second SIGTERM fires the
/// hard root token from installSignalSource() exactly as before (a hard
/// fire cancels the drain token too, after the root, so drain waiters
/// never outlive the root and a fired drain token with a fired root
/// means a hard fire). Services poll drain for "stop accepting, finish,
/// exit clean" and the root for "abandon everything now".
CancelToken installDrainSignalSource();

/// 128 + signal number once the source HARD-fired (130 for SIGINT, 143
/// for SIGTERM — the exit codes a shell expects), 0 while it has not.
/// A drain-only SIGTERM does not count: a clean drain exits 0.
int signalExitCode();

/// Sets SIGPIPE to SIG_IGN process-wide (idempotent). Every component
/// that writes to sockets or pipes calls this so a dead peer surfaces
/// as EPIPE through the normal I/O error path instead of killing the
/// process. FrameWriter also passes MSG_NOSIGNAL; this covers every
/// other write.
void ignoreSigpipe();

} // namespace grassp

#endif // GRASSP_SUPPORT_CANCEL_H
