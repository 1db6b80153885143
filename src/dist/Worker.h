//===- dist/Worker.h - The dist runtime's worker process body ------------===//
//
// A worker is a forked child of the coordinator: it inherits the
// CompiledPlan (including any dlopen'd jit kernel — the KernelCache
// means the kernel was compiled at most once, in the parent) and talks
// to the coordinator over one Unix-domain stream socket.
//
// The worker is deliberately THREADLESS: a fork()ed child of a
// potentially multi-threaded parent may only rely on async-signal-safe
// state plus what glibc guarantees (malloc works after fork). A single
// loop blocks reading the socket, receives batched Task frames,
// executes each item through the plan's tier ladder over a window of
// the shared mapping, and ships one Result frame per item as it
// completes. An idle worker sends nothing; liveness is the
// COORDINATOR's job (socket EOF, and deadlines on the frames a worker
// owes it: its Hello, and a Result per dealt item).
//
// Shard bytes never cross the socket: every item is a descriptor into
// one stripe of the published read-only mapping (see dist/Shm.h). The
// worker holds no mapping until a Publish frame delivers one, validates
// each descriptor's generation and stripe against the stripe table it
// holds, and _exit(StaleMapExitStatus)s on any mismatch, so a stale
// mapping is a loud worker death the coordinator recovers from, never a
// silent fold over the wrong bytes. The table a Publish replaces is
// closed only after the next batch's Results are sent: freeing a large
// memfd's pages is slow, and no fold should wait on it.
//
// Real fault injection: on receipt of a task item the worker consults
// the dist.* fault sites keyed by the item's attempt key, and then
// actually _exit(137)s, raise(SIGKILL)s itself, hangs forever, flips
// one byte of its reply frame, or replies with a checksummed summary of
// the wrong shape; before its Hello it consults
// dist.worker.hello and may hang without ever greeting. These are
// genuine process deaths and genuine bad bytes on a real socket — the
// coordinator's recovery machinery is exercised against exactly what it
// was designed for.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_DIST_WORKER_H
#define GRASSP_DIST_WORKER_H

#include "dist/Shm.h"
#include "support/FaultInject.h"

namespace grassp {
namespace runtime {
class CompiledPlan;
}

namespace dist {

/// Fault sites the worker consults per received task, keyed by the
/// task's AttemptKey (pure in run/attempt/shard — see distAttemptKey).
inline constexpr const char *SiteWorkerExit = "dist.worker.exit";
inline constexpr const char *SiteWorkerKill = "dist.worker.kill";
inline constexpr const char *SiteWorkerHang = "dist.worker.hang";
inline constexpr const char *SiteFrameCorrupt = "dist.frame.corrupt";
/// The worker sends a checksummed Result whose summary has one value
/// too many in D, Head, Merged or Tables (the draw picks which).
inline constexpr const char *SiteResultShape = "dist.result.shape";
/// Consulted once per worker process, with key 0, before the Hello: when
/// it fires the worker hangs without greeting, so an armed site hits
/// every spawn and the coordinator's Hello deadline must kill each one.
inline constexpr const char *SiteWorkerHello = "dist.worker.hello";

/// Exit status a fault-injected worker dies with (the classic OOM-kill
/// status, distinguishable from both clean exits and signals).
inline constexpr int WorkerFaultExitStatus = 137;

/// The worker protocol loop. Runs in the forked child on \p Fd; sends
/// Hello (pid + the plan's canonical bytecode hash), then serves
/// Publish and Task frames until Shutdown or coordinator EOF. Never
/// returns — always _exit()s (clean protocol end: 0; stale descriptor:
/// StaleMapExitStatus) so the child cannot fall back into the parent's
/// stack, atexit handlers, or gtest machinery.
[[noreturn]] void workerMain(int Fd, const runtime::CompiledPlan &Plan,
                             FaultInjector *Faults);

} // namespace dist
} // namespace grassp

#endif // GRASSP_DIST_WORKER_H
