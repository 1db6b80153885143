//===- dist/Worker.cpp ----------------------------------------------------==//

#include "dist/Worker.h"

#include "dist/Protocol.h"
#include "runtime/Kernels.h"

#include <csignal>
#include <cstdint>
#include <utility>

#include <unistd.h>

namespace grassp {
namespace dist {

void workerMain(int Fd, const runtime::CompiledPlan &Plan,
                FaultInjector *Faults) {
  // The mapping the last Publish delivered (none before the first).
  ShmRegion Map;
  // The mapping a Publish replaced. Closing the last reference to a big
  // memfd frees its pages and takes milliseconds, so it waits until the
  // Results of the next batch are on the wire.
  ShmRegion Retired;

  FrameWriter Writer;

  // The injected hang before the handshake: never greet, so the
  // coordinator's Hello deadline must SIGKILL us.
  if (Faults && Faults->shouldFailKeyed(SiteWorkerHello, 0))
    for (;;)
      ::pause();
  // The fork handshake: the coordinator refuses a worker whose inherited
  // plan hashes differently from its own.
  HelloMsg Hello;
  Hello.Pid = static_cast<uint64_t>(::getpid());
  Hello.PlanHash = Plan.compiled().bytecodeHash();
  encodeHello(Hello, Writer.payload());
  if (!Writer.send(Fd, MsgType::Hello))
    ::_exit(0);

  FrameReader Reader;
  std::vector<int> PendingFds;
  for (;;) {
    // Blocks until the coordinator sends a frame; SCM_RIGHTS fds that
    // ride in with a Publish land on PendingFds in arrival order.
    Frame F;
    if (Reader.read(Fd, &F, &PendingFds) != RecvStatus::Ok)
      ::_exit(0); // coordinator gone (or untrusted channel): clean end.
    if (F.Type == MsgType::Shutdown)
      ::_exit(0);

    if (F.Type == MsgType::Publish) {
      PublishMsg Pub;
      if (!decodePublish(F.Payload, &Pub))
        ::_exit(0); // checksummed but undecodable: give up.
      // One fd per stripe, all riding this frame's single SCM_RIGHTS
      // message. Any other count means the table and its fds disagree;
      // never fold from that.
      if (PendingFds.size() != Pub.Stripes.size())
        ::_exit(StaleMapExitStatus);
      Retired.reset();
      Retired = std::move(Map);
      Map = ShmRegion();
      Map.Generation = Pub.Generation;
      for (size_t K = 0; K != Pub.Stripes.size(); ++K)
        Map.Stripes.push_back(
            {PendingFds[K], Pub.Stripes[K].ByteOffset, Pub.Stripes[K].Elems});
      PendingFds.clear();
      continue;
    }
    if (F.Type != MsgType::Task)
      continue; // ignore stray frames; the protocol stays in lockstep.

    TaskMsg Task;
    if (!decodeTask(F.Payload, &Task))
      ::_exit(0); // a frame that checksummed but won't decode: give up.

    // A batch executes strictly in order, one Result per item as it
    // completes; anything queued behind a crash or hang is requeued by
    // the coordinator's death handling.
    for (const TaskItem &It : Task.Items) {
      // The REAL faults. Decisions are pure in (seed, site, AttemptKey),
      // so a chaos run replays its exact kill pattern from its seed.
      if (Faults) {
        if (Faults->shouldFailKeyed(SiteWorkerExit, It.AttemptKey))
          ::_exit(WorkerFaultExitStatus);
        if (Faults->shouldFailKeyed(SiteWorkerKill, It.AttemptKey)) {
          ::raise(SIGKILL);
          ::_exit(WorkerFaultExitStatus); // unreachable; belt and braces.
        }
        if (Faults->shouldFailKeyed(SiteWorkerHang, It.AttemptKey)) {
          // Go silent: no result. The coordinator's per-task deadline
          // must detect this and SIGKILL us.
          for (;;)
            ::pause();
        }
      }

      // Descriptor validation: the generation must be the mapping we
      // hold, the stripe must be in its table and the window must fit
      // that stripe. Any mismatch means we would fold the wrong bytes —
      // die loudly instead; the coordinator requeues the shard and
      // respawns us with the current mapping.
      runtime::SegmentView Seg;
      ShmWindow Window;
      if (It.Generation != Map.Generation ||
          !Window.map(Map, It.Stripe, It.Offset, It.Count, &Seg))
        ::_exit(StaleMapExitStatus);

      ResultMsg Res;
      Res.TaskId = It.TaskId;
      Res.ShardIndex = It.ShardIndex;
      Res.Out = Plan.runWorker(Seg);
      if (Faults && Faults->shouldFailKeyed(SiteResultShape, It.AttemptKey)) {
        std::vector<int64_t> *Parts[] = {&Res.Out.D, &Res.Out.Head,
                                         &Res.Out.Merged, &Res.Out.Tables};
        uint64_t Pick = Faults->drawFor(SiteResultShape, It.AttemptKey) % 4;
        Parts[Pick]->push_back(0);
      }

      int64_t CorruptAt = -1;
      if (Faults && Faults->shouldFailKeyed(SiteFrameCorrupt, It.AttemptKey))
        CorruptAt = static_cast<int64_t>(
            Faults->drawFor(SiteFrameCorrupt, It.AttemptKey) & 0x7fffffff);
      encodeResult(Res, Writer.payload());
      if (!Writer.send(Fd, MsgType::Result, CorruptAt))
        ::_exit(0);
    }
    Retired.reset();
  }
}

} // namespace dist
} // namespace grassp
