//===- support/FaultInject.h - Deterministic seeded fault injection ------===//
//
// Named fault sites for chaos testing the parallel runtime, the cluster
// simulator, and the synthesis driver. Every trigger decision is a pure
// function of (seed, site name, hit index or caller key): a chaos run is
// replayable bit-for-bit from its seed, and keyed decisions are
// independent of thread interleaving entirely.
//
// Sites are armed before the parallel phase starts and consulted from
// worker threads; consultation is thread-safe and lock-free on the hot
// decision path (per-site atomics). A site that is not armed costs one
// hash-map lookup and decides "no fault".
//
// Canonical site names (see DESIGN.md, fault model):
//   runner.worker     segment worker attempt fails (throws)
//   runner.straggler  segment worker stalls for DelaySeconds
//   cluster.node      model node is dead for the whole job
//   cluster.straggler map task is slow (modeled, no real sleep)
//   synth.task        synthesis task attempt crashes (throws)
//
// The dist.* sites are REAL faults, not simulated ones: a worker
// *process* of the multi-process runtime (src/dist/) consults them when
// a task arrives and then actually dies, hangs, or ships a damaged
// frame — the coordinator's failure handling is exercised against the
// genuine article (SIGKILL, waitpid status decoding, checksum rejects):
//   dist.worker.exit   worker calls _exit(137) before computing
//   dist.worker.kill   worker raise(SIGKILL)s itself
//   dist.worker.hang   worker goes silent (no result) holding a task
//   dist.frame.corrupt worker flips a byte in its reply frame
//   dist.worker.hello  worker hangs before its Hello (key 0: an armed
//                      site hits every spawn)
//
// The serve.* sites are the service-layer faults (src/serve/), also
// real: a solver worker process dies or wedges mid-solve, the cache
// snapshot is torn mid-write, a client vanishes mid-request:
//   serve.worker.kill    solver worker raise(SIGKILL)s on job receipt
//   serve.worker.hang    solver worker goes silent holding the job
//   serve.snapshot.torn  cache snapshot truncated at a drawn byte (and
//                        the journal kept), proving journal-is-truth
//   serve.journal.reopen the journal reopen after a snapshot fails,
//                        proving put() heals the closed writer
//   serve.client.disconnect  (client-side) connection dropped after a
//                        truncated request frame
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SUPPORT_FAULTINJECT_H
#define GRASSP_SUPPORT_FAULTINJECT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace grassp {

/// Trigger configuration for one fault site. Triggers compose with OR;
/// MaxFires caps the total across all of them.
struct FaultSpec {
  /// Chance in [0, 1] that a given hit (or key) fires. The draw is a
  /// pure hash of (seed, site, hit index or key) — no RNG state.
  double Probability = 0.0;
  /// Hit-count trigger: fires on hits N, 2N, 3N, ... (1-based; 0 = off).
  uint64_t EveryNth = 0;
  /// Keyed trigger: fires when key % KeyModulo == KeyResidue (0 = off).
  /// Lets a test plant a fault on exactly segment 3 or node 7.
  uint64_t KeyModulo = 0;
  uint64_t KeyResidue = 0;
  /// Explicit keyed trigger: fires when the key is in this list. The
  /// most precise way to plant faults whose counters a test can predict.
  std::vector<uint64_t> Keys;
  /// Cap on total fires for the site (~0 = unlimited).
  uint64_t MaxFires = ~uint64_t{0};
  /// For delay sites: how long the victim stalls, in seconds. Callers
  /// must serve the stall interruptibly (poll their CancelToken, as the
  /// runner's straggler loop does) so an injected straggler cannot
  /// outlive a cancelled run.
  double DelaySeconds = 0.0;
};

/// Thrown by maybeThrow() when a site fires; fault-tolerant layers catch
/// it exactly like a real worker failure.
class FaultInjectedError : public std::runtime_error {
public:
  FaultInjectedError(const std::string &Site, uint64_t Key);
  const std::string &site() const { return SiteName; }
  uint64_t key() const { return Key; }

private:
  std::string SiteName;
  uint64_t Key;
};

/// The injector: a seed plus a set of armed sites.
class FaultInjector {
public:
  explicit FaultInjector(uint64_t Seed = 0) : Seed(Seed) {}

  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  uint64_t seed() const { return Seed; }

  /// Arms (or re-arms) \p Site with \p Spec. Not thread-safe against
  /// concurrent decisions — arm before the parallel phase.
  void arm(const std::string &Site, const FaultSpec &Spec);
  void disarm(const std::string &Site);
  bool armed(const std::string &Site) const;

  /// Hit-count decision: the Nth call for a site fires per the spec.
  /// The hit index is claimed atomically, so the *set* of firing hit
  /// indices is deterministic even when threads race for them.
  bool shouldFail(const std::string &Site) {
    return decide(Site, /*Keyed=*/false, 0);
  }

  /// Keyed decision: pure in (seed, site, key), fully independent of
  /// call order and thread interleaving.
  bool shouldFailKeyed(const std::string &Site, uint64_t Key) {
    return decide(Site, /*Keyed=*/true, Key);
  }

  /// Throws FaultInjectedError when the keyed decision fires.
  void maybeThrow(const std::string &Site, uint64_t Key);

  /// Seconds the caller should stall: the site's DelaySeconds when the
  /// keyed decision fires, else 0.
  double delayFor(const std::string &Site, uint64_t Key);

  /// A pure auxiliary 64-bit draw from (seed, site, key) — no counters
  /// touched, no fire recorded. For faults that need a deterministic
  /// parameter beyond fire/no-fire (e.g. which byte of a reply frame
  /// dist.frame.corrupt flips).
  uint64_t drawFor(const std::string &Site, uint64_t Key) const;

  struct SiteStats {
    uint64_t Hits = 0;
    uint64_t Fires = 0;
  };
  SiteStats stats(const std::string &Site) const;
  uint64_t totalFires() const;

  /// One-line summary, e.g. "runner.worker: 12/40 fired" per site.
  std::string describe() const;

  /// The next run index, from 0. An executor salts its attempt keys with
  /// it, so each run under one injector draws fresh verdicts.
  uint64_t nextRun() { return Runs.fetch_add(1, std::memory_order_relaxed); }

private:
  struct Site {
    FaultSpec Spec;
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Fires{0};
  };

  bool decide(const std::string &Name, bool Keyed, uint64_t Key);
  Site *find(const std::string &Name) const;

  uint64_t Seed;
  std::atomic<uint64_t> Runs{0};
  // Pointer-valued map: Site addresses stay stable across arm() calls so
  // worker threads can hold no iterators and no locks on the hot path.
  std::map<std::string, std::unique_ptr<Site>> Sites;
};

} // namespace grassp

#endif // GRASSP_SUPPORT_FAULTINJECT_H
