//===- support/Cancel.cpp -------------------------------------------------==//

#include "support/Cancel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace grassp {

//===----------------------------------------------------------------------===//
// Deadline
//===----------------------------------------------------------------------===//

Deadline Deadline::after(double Seconds) {
  return at(Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(Seconds < 0 ? 0 : Seconds)));
}

Deadline Deadline::at(Clock::time_point When) {
  Deadline D;
  D.Never = false;
  D.When = When;
  return D;
}

double Deadline::remainingSeconds() const {
  if (Never)
    return std::numeric_limits<double>::infinity();
  double S = std::chrono::duration<double>(When - Clock::now()).count();
  return S > 0 ? S : 0;
}

unsigned Deadline::remainingMs(unsigned CapMs) const {
  if (Never)
    return CapMs;
  double Ms = remainingSeconds() * 1e3;
  double Cap = CapMs == 0 ? Ms : std::min<double>(Ms, CapMs);
  // Floor at 1ms: 0 means "no limit" to the SMT layer, which is the
  // opposite of an expired deadline.
  return Cap < 1 ? 1 : static_cast<unsigned>(Cap);
}

Deadline Deadline::earliest(const Deadline &O) const {
  if (Never)
    return O;
  if (O.Never)
    return *this;
  return When <= O.When ? *this : O;
}

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

namespace detail {

struct CancelState {
  std::atomic<bool> Fired{false};
  /// Earliest deadline on the ancestor chain, frozen at creation.
  Deadline Dl;

  std::mutex Mutex; // guards Children and the Cv sleep predicate.
  std::condition_variable Cv;
  std::vector<std::weak_ptr<CancelState>> Children;

  /// Callbacks run (and are removed) under their own lock so that
  /// removeOnCancel() can guarantee "not in flight" without holding up
  /// concurrent cancelled() polls.
  std::mutex CallbackMutex;
  std::vector<std::pair<uint64_t, std::function<void()>>> Callbacks;
  uint64_t NextCallbackId = 1;
};

namespace {

/// Fires \p S and its whole subtree. Collects each node's callbacks
/// under CallbackMutex and runs them; wakes every sleeper.
void fireTree(const std::shared_ptr<CancelState> &S) {
  if (S->Fired.exchange(true, std::memory_order_acq_rel))
    return; // already fired; the subtree was handled then.

  std::vector<std::weak_ptr<CancelState>> Kids;
  {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Kids = S->Children;
  }
  S->Cv.notify_all();
  {
    // Run callbacks holding CallbackMutex: removeOnCancel() blocks on
    // the same lock, so once it returns no callback can be in flight.
    std::lock_guard<std::mutex> Lock(S->CallbackMutex);
    for (auto &KV : S->Callbacks)
      KV.second();
    S->Callbacks.clear();
  }
  for (const std::weak_ptr<CancelState> &W : Kids)
    if (std::shared_ptr<CancelState> Kid = W.lock())
      fireTree(Kid);
}

} // namespace

} // namespace detail

CancelToken CancelToken::root() {
  return CancelToken(std::make_shared<detail::CancelState>());
}

CancelToken CancelToken::child(Deadline D) const {
  auto Kid = std::make_shared<detail::CancelState>();
  if (!State) {
    Kid->Dl = D;
    return CancelToken(std::move(Kid));
  }
  Kid->Dl = State->Dl.earliest(D);
  bool ParentFired;
  {
    std::lock_guard<std::mutex> Lock(State->Mutex);
    // Registration and the fired-check are one atomic step: a parent
    // firing concurrently either sees the child in Children or we see
    // Fired here; either way the child ends up fired.
    ParentFired = State->Fired.load(std::memory_order_acquire);
    if (!ParentFired) {
      // Short-lived children (one per interruptible SMT check) would
      // otherwise pile up under a long-lived parent. Sweeping the dead
      // ones when the vector is full, and growing it when the sweep
      // frees less than half, keeps registration amortized O(1).
      std::vector<std::weak_ptr<detail::CancelState>> &Kids = State->Children;
      if (Kids.size() == Kids.capacity()) {
        Kids.erase(std::remove_if(Kids.begin(), Kids.end(),
                                  [](const auto &W) { return W.expired(); }),
                   Kids.end());
        if (Kids.size() * 2 > Kids.capacity())
          Kids.reserve(Kids.capacity() * 2);
      }
      Kids.push_back(Kid);
    }
  }
  if (ParentFired)
    Kid->Fired.store(true, std::memory_order_release);
  return CancelToken(std::move(Kid));
}

void CancelToken::cancel() const {
  if (State)
    detail::fireTree(State);
}

bool CancelToken::cancelled() const {
  if (!State)
    return false;
  return State->Fired.load(std::memory_order_acquire) || State->Dl.expired();
}

Deadline CancelToken::deadline() const {
  return State ? State->Dl : Deadline();
}

bool CancelToken::waitCancelledFor(double Seconds) const {
  if (!State)
    return false;
  if (cancelled())
    return true;
  auto Until = Deadline::Clock::now() +
               std::chrono::duration_cast<Deadline::Clock::duration>(
                   std::chrono::duration<double>(Seconds < 0 ? 0 : Seconds));
  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Cv.wait_until(Lock, State->Dl.timeOr(Until), [this] {
    return State->Fired.load(std::memory_order_acquire);
  });
  Lock.unlock();
  return cancelled();
}

bool CancelToken::sleepFor(double Seconds) const {
  if (Seconds <= 0)
    return !cancelled();
  if (!State) {
    std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
    return true;
  }
  return !waitCancelledFor(Seconds);
}

uint64_t CancelToken::onCancel(std::function<void()> Fn) const {
  if (!State)
    return 0;
  {
    std::lock_guard<std::mutex> Lock(State->CallbackMutex);
    if (!State->Fired.load(std::memory_order_acquire)) {
      uint64_t Id = State->NextCallbackId++;
      State->Callbacks.emplace_back(Id, std::move(Fn));
      return Id;
    }
    // Already fired: fall through and run inline below, outside the
    // registration branch but still under the callback lock so the
    // "exactly once" and removal guarantees hold trivially.
    Fn();
  }
  return 0;
}

void CancelToken::removeOnCancel(uint64_t Id) const {
  if (!State || Id == 0)
    return;
  std::lock_guard<std::mutex> Lock(State->CallbackMutex);
  for (size_t I = 0; I != State->Callbacks.size(); ++I)
    if (State->Callbacks[I].first == Id) {
      State->Callbacks.erase(State->Callbacks.begin() + I);
      return;
    }
}

//===----------------------------------------------------------------------===//
// Signal source
//===----------------------------------------------------------------------===//

namespace {

/// The only thing a signal handler may do: set a lock-free flag. A
/// real atomic, not volatile sig_atomic_t: the handler runs on
/// whichever thread the kernel picked while the watcher reads from its
/// own thread, so this is cross-THREAD communication, not just
/// handler-vs-interrupted-code (volatile would be a data race there).
/// Lock-free atomic int stores are async-signal-safe.
std::atomic<int> GSignalFlag{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler needs a lock-free flag");

void signalHandler(int Sig) {
  GSignalFlag.store(Sig, std::memory_order_relaxed);
}

/// Polls the flag at ~20ms and fires the root token once. The thread is
/// joined from the static destructor — never detached — so TSan sees a
/// clean teardown and exit() cannot race a live watcher. After a hard
/// fire it idles until that join instead of returning: a process that
/// leaves by _exit (a forked child) never runs the destructor, and a
/// finished but unjoined thread is a leak.
struct SignalSource {
  CancelToken Root = CancelToken::root();
  CancelToken Drain = CancelToken::root();
  /// Set by installDrainSignalSource(): the first SIGTERM fires Drain
  /// only; anything after it (or any SIGINT) hard-fires Root.
  std::atomic<bool> DrainArmed{false};
  std::atomic<int> FiredSignal{0};
  std::atomic<bool> Stop{false};
  std::thread Watcher;

  SignalSource() {
    std::signal(SIGINT, signalHandler);
    std::signal(SIGTERM, signalHandler);
    Watcher = std::thread([this] {
      bool DrainFired = false, HardFired = false;
      while (!Stop.load(std::memory_order_acquire)) {
        int Sig = GSignalFlag.load(std::memory_order_relaxed);
        if (Sig != 0 && !HardFired) {
          if (Sig == SIGTERM && !DrainFired &&
              DrainArmed.load(std::memory_order_acquire)) {
            // Graceful path: consume the flag, re-arm the handlers
            // (std::signal may be one-shot), fire only the drain
            // token, and keep watching for the hard follow-up.
            DrainFired = true;
            GSignalFlag.store(0, std::memory_order_relaxed);
            std::signal(SIGTERM, signalHandler);
            std::signal(SIGINT, signalHandler);
            Drain.cancel();
            continue;
          }
          FiredSignal.store(Sig, std::memory_order_release);
          // Restore defaults first: a second Ctrl-C during shutdown
          // kills the process the classic way instead of queueing.
          std::signal(SIGINT, SIG_DFL);
          std::signal(SIGTERM, SIG_DFL);
          // A hard fire implies drain: nothing may keep waiting on the
          // graceful token once the run is being torn down. Root fires
          // first, so whoever sees the drain token fired and then checks
          // the root tells a hard fire from a graceful one.
          Root.cancel();
          Drain.cancel();
          HardFired = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  ~SignalSource() {
    Stop.store(true, std::memory_order_release);
    Watcher.join();
  }
};

SignalSource &signalSource() {
  static SignalSource S;
  return S;
}

} // namespace

CancelToken installSignalSource() { return signalSource().Root; }

CancelToken installDrainSignalSource() {
  SignalSource &S = signalSource();
  S.DrainArmed.store(true, std::memory_order_release);
  return S.Drain;
}

int signalExitCode() {
  int Sig = signalSource().FiredSignal.load(std::memory_order_acquire);
  return Sig == 0 ? 0 : 128 + Sig;
}

void ignoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

} // namespace grassp
