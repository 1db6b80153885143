//===- dist/Coordinator.cpp -----------------------------------------------==//

#include "dist/Coordinator.h"

#include "dist/Worker.h"
#include "runtime/SegmentSource.h"
#include "support/Timing.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <sstream>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

namespace grassp {
namespace dist {

using runtime::steadyNowNs;
using Step = runtime::ShardScheduler::Step;

std::string DistRunReport::describe() const {
  std::ostringstream OS;
  OS << "shards " << ShardsCompleted << "/" << Shards << " ["
     << (UsedShm ? "shm" : "serial") << "]; workers " << WorkersSpawned
     << " spawned, " << WorkersKilled << " killed(signal), " << WorkersExited
     << " exited, " << WorkersRestarted << " restarted"
     << "; reassigned " << ShardsReassigned << ", retries " << Retries
     << ", speculative " << SpeculativeWins << "/" << SpeculativeLaunches
     << ", corrupt " << CorruptFrames << ", hangs " << HangsDetected
     << ", refolds " << SerialRefolds << "; shipped " << BytesShipped
     << " B, mapped " << BytesMapped << " B in " << TaskFrames
     << " task + " << PublishFrames << " publish frames; published "
     << Stripes << " stripe(s) in "
     << static_cast<int64_t>(PublishSeconds * 1e6) << " us, merge "
     << static_cast<int64_t>(MergeSeconds * 1e6) << " us, recovery "
     << static_cast<int64_t>(RecoverySeconds * 1e6) << " us";
  if (Cancelled)
    OS << " [cancelled]";
  return OS.str();
}

DistCoordinator::DistCoordinator(const runtime::CompiledPlan &Plan,
                                 const DistConfig &Cfg)
    : Plan(Plan), Cfg(Cfg), PlanHash(Plan.compiled().bytecodeHash()),
      // A child forked while a mapping is published closes its copies
      // of the stripe fds: every worker gets its mapping by Publish
      // frame. workerMain never returns.
      Pool(std::max(1u, Cfg.Workers), Cfg.MaxWorkerRestarts,
           [this](int Fd) {
             Map.reset();
             workerMain(Fd, this->Plan, this->Cfg.Faults);
           }),
      Procs(Pool.slots()) {
  // Belt and braces with FrameWriter's MSG_NOSIGNAL: no socket write
  // anywhere in the coordinator (or a worker forked from it) may turn
  // a dead peer into a process-killing SIGPIPE — it must surface as an
  // I/O error through the recovery matrix.
  ignoreSigpipe();
  if (this->Cfg.BatchShards == 0)
    this->Cfg.BatchShards = 1;
}

DistCoordinator::~DistCoordinator() {
  shutdown();
  Map.reset();
}

unsigned DistCoordinator::stripeCount(unsigned Workers, size_t Shards,
                                      uint64_t Bytes) {
  uint64_t S = std::min<uint64_t>({std::max(1u, Workers), Shards, MaxFrameFds,
                                   Bytes / MinStripeBytes});
  return static_cast<unsigned>(std::max<uint64_t>(S, 1));
}

bool DistCoordinator::publish(const std::vector<uint64_t> &ShardElems,
                              const OpenFn &Open, const ChunkFn &Chunk,
                              const runtime::SegmentSource *Src) {
  Map.reset();
  const size_t N = ShardElems.size();
  Desc.assign(N, ShardDesc());
  int RegionFd = -1;
  uint64_t ByteOffset = 0;
  if (Src && Src->contiguousByteRegion(&RegionFd, &ByteOffset)) {
    // The workload file IS the region: one stripe that workers mmap by
    // chunk offset, and nothing is copied. Own a dup — the source (and
    // its fd) may be destroyed before the next publication.
    int Fd = ::fcntl(RegionFd, F_DUPFD_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    Map.Stripes.push_back({Fd, ByteOffset, Src->elements()});
    for (size_t I = 0; I != N; ++I)
      Desc[I] = {0, Src->chunkBegin(I), ShardElems[I]};
  } else if (!writeStripes(ShardElems, Open, Chunk)) {
    Map.reset();
    return false;
  }
  Map.Generation = NextGeneration++;
  return true;
}

bool DistCoordinator::writeStripes(const std::vector<uint64_t> &ShardElems,
                                   const OpenFn &Open, const ChunkFn &Chunk) {
  const size_t N = ShardElems.size();
  std::vector<uint64_t> Prefix(N + 1, 0);
  for (size_t I = 0; I != N; ++I)
    Prefix[I + 1] = Prefix[I] + ShardElems[I];
  const uint64_t Total = Prefix[N];
  const unsigned S = stripeCount(Cfg.Workers, N, Total * sizeof(int64_t));

  // Stripe K starts at the first shard whose prefix reaches K/S of the
  // elements, moved as needed so every stripe holds at least one shard.
  std::vector<size_t> First(S + 1, N);
  First[0] = 0;
  for (unsigned K = 1; K != S; ++K) {
    uint64_t Target = Total / S * K + Total % S * K / S;
    size_t I = static_cast<size_t>(
        std::lower_bound(Prefix.begin(), Prefix.end(), Target) -
        Prefix.begin());
    First[K] = std::clamp(I, First[K - 1] + 1, N - (S - K));
  }

  for (unsigned K = 0; K != S; ++K) {
    int Fd = shmCreateBuffer();
    if (Fd < 0)
      return false;
    Map.Stripes.push_back({Fd, 0, Prefix[First[K + 1]] - Prefix[First[K]]});
    for (size_t I = First[K]; I != First[K + 1]; ++I)
      Desc[I] = {K, Prefix[I] - Prefix[First[K]], ShardElems[I]};
  }

  // Stripe K's shards, end to end, through one reader. A view whose
  // size disagrees with the geometry the descriptors were cut from
  // fails the publication.
  auto Write = [&](unsigned K, const ChunkFn &Read) {
    for (size_t I = First[K]; I != First[K + 1]; ++I) {
      runtime::SegmentView V = Read(I);
      if (V.Size != ShardElems[I] ||
          (V.Size != 0 &&
           !shmAppend(Map.Stripes[K].Fd, V.Data, V.Size * sizeof(int64_t))))
        return false;
    }
    return true;
  };
  // Stripe K through this thread's reader, or through a new one; an
  // exception waits for the coordinator thread to rethrow it.
  std::vector<char> Ok(S, 0);
  std::vector<std::exception_ptr> Err(S);
  auto Guarded = [&](unsigned K, bool NewReader) {
    try {
      Ok[K] = Write(K, NewReader ? Open() : Chunk);
    } catch (...) {
      Err[K] = std::current_exception();
    }
  };
  std::vector<unsigned> Here = {0};
  Here.reserve(S);
  {
    std::vector<std::jthread> Helpers; // joined on every way out.
    Helpers.reserve(S - 1);
    for (unsigned K = 1; K != S; ++K) {
      try {
        Helpers.emplace_back(Guarded, K, true);
      } catch (const std::system_error &) {
        Here.push_back(K); // no thread to be had: write it here instead.
      }
    }
    for (unsigned K : Here)
      Guarded(K, false);
  }
  for (const std::exception_ptr &E : Err)
    if (E) {
      Map.reset();
      std::rethrow_exception(E);
    }
  for (unsigned K = 0; K != S; ++K)
    if (!Ok[K] || !shmSeal(Map.Stripes[K].Fd))
      return false;
  return true;
}

unsigned DistCoordinator::adopt(const std::vector<unsigned> &Forked) {
  for (unsigned Slot : Forked) {
    Procs[Slot] = Proc();
    Procs[Slot].ForkNs = steadyNowNs();
  }
  return static_cast<unsigned>(Forked.size());
}

void DistCoordinator::prewarm() { adopt(Pool.fill()); }

void DistCoordinator::shutdown() {
  Pool.shutdown(/*GraceSec=*/0.3, [](int Fd) {
    writeFrame(Fd, MsgType::Shutdown, {});
  });
}

void DistCoordinator::handleDeath(unsigned Slot, DeathReason Reason,
                                  DistRunReport &R,
                                  runtime::ShardScheduler &Sched) {
  Stopwatch Rec;
  // Corrupt/hung workers are still alive; kill before reaping. (The
  // frame checksum already rejected their bytes, and framing past a
  // bad frame is untrusted — restart is the only safe response.)
  int St = Pool.reap(Slot, /*Kill=*/Reason != DeathReason::Eof);
  if (waitStatusSignaled(St))
    ++R.WorkersKilled;
  else if (!waitStatusOk(St))
    ++R.WorkersExited;
  if (Reason == DeathReason::Corrupt)
    ++R.CorruptFrames;
  else if (Reason == DeathReason::Hang)
    ++R.HangsDetected;
  // Every attempt the worker held — the one it was folding and
  // everything batched behind it — is lost with it.
  int64_t Now = steadyNowNs();
  for (const Assign &A : Procs[Slot].Queue)
    Sched.lost(A.A, Now);
  Procs[Slot] = Proc();
  R.RecoverySeconds += Rec.seconds();
}

void DistCoordinator::startFront(unsigned Slot, int64_t NowNs,
                                 runtime::ShardScheduler &Sched) {
  std::deque<Assign> &Q = Procs[Slot].Queue;
  if (Q.empty() || Q.front().StartNs >= 0)
    return;
  Q.front().StartNs = NowNs;
  Sched.started(Q.front().A, NowNs);
}

bool DistCoordinator::dispatchBatch(unsigned Slot,
                                    const std::vector<Attempt> &Batch,
                                    DistRunReport &R,
                                    runtime::ShardScheduler &Sched) {
  Proc &P = Procs[Slot];
  TaskMsg T;
  T.Items.reserve(Batch.size());
  for (const Attempt &A : Batch) {
    TaskItem It;
    It.TaskId = NextTaskId++;
    It.ShardIndex = A.Shard;
    It.AttemptKey = A.Key;
    It.Generation = Map.Generation;
    It.Stripe = Desc[A.Shard].Stripe;
    if (Cfg.Faults && Cfg.Faults->shouldFailKeyed(SiteStaleStripe, A.Key))
      It.Stripe = Map.Stripes.size();
    It.Offset = Desc[A.Shard].Offset;
    It.Count = Desc[A.Shard].Count;
    T.Items.push_back(It);
    // Queued before sending: a failed send loses the batch with the
    // worker.
    P.Queue.push_back({It.TaskId, A});
  }
  startFront(Slot, steadyNowNs(), Sched);

  // A worker that does not hold the current generation gets it
  // published first — fds via SCM_RIGHTS on the Publish frame, and
  // SOCK_STREAM ordering guarantees it adopts the mapping before the
  // Task frame below arrives.
  if (P.MapGeneration != Map.Generation) {
    PublishMsg Pub;
    Pub.Generation = Map.Generation;
    std::vector<int> Fds;
    for (const ShmStripe &S : Map.Stripes) {
      Pub.Stripes.push_back({S.ByteOffset, S.Elems});
      Fds.push_back(S.Fd);
    }
    encodePublish(Pub, P.Writer.payload());
    if (!P.Writer.sendWithFds(Pool.fd(Slot), MsgType::Publish, Fds))
      return false;
    P.MapGeneration = Map.Generation;
    ++R.PublishFrames;
    R.BytesShipped += P.Writer.lastFrameBytes();
  }
  encodeTask(T, P.Writer.payload());
  if (!P.Writer.send(Pool.fd(Slot), MsgType::Task))
    return false;
  ++R.TaskFrames;
  R.BytesShipped += P.Writer.lastFrameBytes();
  for (const TaskItem &It : T.Items)
    R.BytesMapped += It.Count * sizeof(int64_t);
  return true;
}

void DistCoordinator::drainFrames(unsigned Slot, DistRunReport &R,
                                  runtime::ShardScheduler &Sched,
                                  std::vector<runtime::WorkerOutput> &Outs) {
  Proc &P = Procs[Slot];
  Frame F;
  for (;;) {
    RecvStatus St = P.Reader.next(&F);
    if (St == RecvStatus::NeedMore)
      return;
    if (St != RecvStatus::Ok) {
      handleDeath(Slot, DeathReason::Corrupt, R, Sched);
      return;
    }
    switch (F.Type) {
    case MsgType::Hello: {
      HelloMsg M;
      if (!decodeHello(F.Payload, &M) || M.PlanHash != PlanHash) {
        // A worker not running OUR plan must never fold a shard.
        handleDeath(Slot, DeathReason::Corrupt, R, Sched);
        return;
      }
      // It holds no mapping yet: its first dispatch publishes one.
      P.HelloOk = true;
      break;
    }
    case MsgType::Result: {
      ResultMsg M;
      if (!decodeResult(F.Payload, &M)) {
        handleDeath(Slot, DeathReason::Corrupt, R, Sched);
        return;
      }
      R.BytesShipped += F.Payload.size() + FrameHeaderBytes;
      auto QIt = std::find_if(
          P.Queue.begin(), P.Queue.end(),
          [&](const Assign &A) { return A.TaskId == M.TaskId; });
      if (QIt == P.Queue.end())
        break; // stale result (task was reassigned); drop it.
      Attempt A = QIt->A;
      P.Queue.erase(QIt);
      if (Sched.completed(A))
        Outs[A.Shard] = std::move(M.Out);
      // The worker has moved on to its next queued item (if any).
      startFront(Slot, steadyNowNs(), Sched);
      break;
    }
    default:
      break; // Task/Shutdown/Publish are coordinator->worker only.
    }
  }
}

void DistCoordinator::killOverdue(DistRunReport &R,
                                  runtime::ShardScheduler &Sched) {
  const int64_t Now = steadyNowNs();
  const int64_t HelloNs = static_cast<int64_t>(HelloTimeoutSeconds * 1e9);
  for (unsigned Slot = 0; Slot != Procs.size(); ++Slot) {
    const Proc &P = Procs[Slot];
    if (!Pool.live(Slot))
      continue;
    // The frame the worker owes: its Hello, else the Result of the item
    // it is folding now. An idle worker owes nothing.
    int64_t Since, LimitNs;
    if (!P.HelloOk) {
      Since = P.ForkNs;
      LimitNs = HelloNs;
    } else if (!P.Queue.empty()) {
      const Assign &Front = P.Queue.front();
      Since = Front.StartNs;
      LimitNs = static_cast<int64_t>(
          static_cast<double>(
              runtime::taskDeadlineNs(Cfg, Desc[Front.A.Shard].Count)) *
          HangKillFactor);
    } else {
      continue;
    }
    // Bytes still waiting in the socket may be the frame it owes; they
    // are read on the next tick before it is judged again.
    struct pollfd Pending = {Pool.fd(Slot), POLLIN, 0};
    if (Now - Since > LimitNs && ::poll(&Pending, 1, 0) == 0)
      handleDeath(Slot, DeathReason::Hang, R, Sched);
  }
}

DistRunReport DistCoordinator::runImpl(
    const std::vector<uint64_t> &ShardElems, const OpenFn &Open,
    const runtime::SegmentSource *Src) {
  const size_t N = ShardElems.size();
  DistRunReport R;
  R.Shards = static_cast<unsigned>(N);
  Stopwatch Total;
  // This thread's reader: stripe 0 of the publication, then refolds.
  const ChunkFn Chunk = Open();

  // A cancelled previous run may have left workers mid-batch; their
  // eventual results would be stale, so restart them clean.
  for (unsigned Slot = 0; Slot != Procs.size(); ++Slot)
    if (Pool.live(Slot) && !Procs[Slot].Queue.empty())
      Pool.reap(Slot, /*Kill=*/true);
  // Top the pool up before publishing, so no fork overlaps the
  // publication helpers and new workers say Hello while the input is
  // written. An unpublished run deals nothing — the scheduler refolds
  // every shard in-process.
  R.WorkersSpawned += adopt(Pool.fill());
  Stopwatch PublishTimer;
  R.UsedShm = publish(ShardElems, Open, Chunk, Src);
  R.PublishSeconds = PublishTimer.seconds();
  R.Stripes = static_cast<unsigned>(Map.Stripes.size());

  runtime::ShardScheduler Sched(Cfg, ShardElems, RunIndex);
  std::vector<runtime::WorkerOutput> Outs(N);
  // The first deal waits until every live worker has said Hello (or
  // been killed at its Hello deadline), so a cold run fans out over the
  // whole pool like a warm one.
  bool Greeted = false;
  for (;;) {
    // Dead slots are refilled every tick while the restart budget
    // lasts. Failed forks burn budget too, so a pool that cannot be
    // refilled runs dry and the scheduler refolds what is left.
    if (R.UsedShm && Pool.liveCount() != Pool.slots()) {
      Stopwatch Rec;
      unsigned Respawned = adopt(Pool.refill());
      R.WorkersRestarted += Respawned;
      R.WorkersSpawned += Respawned;
      R.RecoverySeconds += Rec.seconds();
    }
    int64_t Now = steadyNowNs();
    Greeted = Greeted || greeted();

    // Deal to idle, handshaken workers — batched, but split evenly
    // across the idle pool first so a small run is never serialized
    // onto one worker by a large BatchShards. Refolds run right here.
    std::vector<unsigned> Idle;
    for (unsigned Slot = 0; Slot != Procs.size(); ++Slot)
      if (idle(Slot))
        Idle.push_back(Slot);
    auto decide = [&](runtime::ShardScheduler::Capacity Room) {
      runtime::ShardScheduler::Decision D;
      while ((D = Sched.next(Now, Room)).S == Step::Refold)
        Outs[D.A.Shard] = Plan.runWorker(Chunk(D.A.Shard));
      return D;
    };
    std::vector<Attempt> Deals;
    runtime::ShardScheduler::Decision D;
    while ((D = decide({Greeted &&
                            Deals.size() < Idle.size() * Cfg.BatchShards,
                        /*Backup=*/false,
                        !R.UsedShm || Pool.liveCount() == 0}))
               .S == Step::Deal)
      Deals.push_back(D.A);
    R.Cancelled = D.S == Step::Cancel;
    if (D.S == Step::Merge || R.Cancelled)
      break;
    size_t Per = Deals.empty() ? 1
                               : (Deals.size() + Idle.size() - 1) / Idle.size();
    for (size_t K = 0; K * Per < Deals.size(); ++K) {
      std::vector<Attempt> Batch(
          Deals.begin() + K * Per,
          Deals.begin() + std::min(Deals.size(), (K + 1) * Per));
      if (!dispatchBatch(Idle[K], Batch, R, Sched))
        handleDeath(Idle[K], DeathReason::Eof, R, Sched);
    }
    // Stragglers: each backup goes to a worker still idle.
    for (unsigned Slot : Idle) {
      if (!idle(Slot))
        continue;
      D = decide({/*Deal=*/false, /*Backup=*/true});
      if (D.S != Step::Backup)
        break;
      if (!dispatchBatch(Slot, {D.A}, R, Sched))
        handleDeath(Slot, DeathReason::Eof, R, Sched);
    }

    // Wait for bytes (results, hellos) or the next timer. With every
    // worker dead this returns at once and the scheduler refolds what
    // is left on the next tick.
    for (unsigned Slot : Pool.readable(/*TimeoutMs=*/2)) {
      RecvStatus St = Procs[Slot].Reader.fill(Pool.fd(Slot));
      if (St == RecvStatus::Eof || St == RecvStatus::Error)
        handleDeath(Slot, DeathReason::Eof, R, Sched);
      else if (St == RecvStatus::Corrupt)
        handleDeath(Slot, DeathReason::Corrupt, R, Sched);
      else
        drainFrames(Slot, R, Sched, Outs);
    }
    killOverdue(R, Sched);
  }

  R += Sched.counters();
  R.ShardsCompleted = static_cast<unsigned>(Sched.done());
  if (!R.Cancelled) {
    Stopwatch MergeTimer;
    R.Output = Plan.merge(Outs);
    R.MergeSeconds = MergeTimer.seconds();
  }
  R.WallSeconds = Total.seconds();
  ++RunIndex;
  return R;
}

DistRunReport
DistCoordinator::run(const std::vector<runtime::SegmentView> &Segs) {
  std::vector<uint64_t> Elems(Segs.size());
  for (size_t I = 0; I != Segs.size(); ++I)
    Elems[I] = Segs[I].Size;
  return runImpl(
      Elems, [&] { return ChunkFn([&](size_t I) { return Segs[I]; }); },
      nullptr);
}

DistRunReport DistCoordinator::run(const runtime::SegmentSource &Src) {
  std::vector<uint64_t> Elems(Src.chunkCount());
  for (size_t I = 0; I != Elems.size(); ++I)
    Elems[I] = Src.chunkElems(I);
  // One cursor per reader: a cursor serves one thread, and each chunk
  // view is consumed (written into a stripe, or refolded) before that
  // reader's next chunk is requested.
  return runImpl(
      Elems,
      [&] {
        std::shared_ptr<runtime::SegmentCursor> C = Src.cursor();
        return ChunkFn([C](size_t I) { return C->chunk(I); });
      },
      &Src);
}

} // namespace dist
} // namespace grassp
