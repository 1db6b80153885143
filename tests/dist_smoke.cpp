//===- tests/dist_smoke.cpp - Multi-process runtime, real-fault tier ------==//
//
// The fixed-seed distributed-execution slice that runs on every ctest
// invocation. Unlike chaos_smoke's simulated faults, everything here is
// the genuine article: worker PROCESSES are forked, killed with real
// SIGKILLs (verified via WIFSIGNALED in the coordinator's waitpid
// decoding), hung, and made to ship checksum-corrupt frames — and every
// recovery must still produce the bit-identical serial answer. Covered:
//
//  * wire protocol framing — roundtrip over a real socketpair, corrupt
//    byte detection, bounds-checked payload decoding, message codecs;
//  * the GDP2 frame layer — the CRC32C check value and hardware/portable
//    agreement, every single-byte flip of a whole frame, a 1 MiB frame
//    sent in odd-sized pieces or cut short, RunReq truncation;
//  * decorrelated-jitter backoff — bounds, determinism, cap clamping
//    (shared by runtime::RunPolicy retries and the dist coordinator);
//  * ThreadPool::drain(Deadline) shedding — discardedTasks counts
//    exactly the queued-but-unstarted tasks, in-flight tasks complete;
//  * DistCoordinator recovery — planted kills/exits/corrupt frames/
//    hangs with predictable counters, a seeded kill sweep, serial-refold
//    last resort, pool reuse across runs, and cancellation.
//
// Every planted fault uses distAttemptKey(run, attempt, shard), so the
// expected counter deltas are exact, not statistical.
//
// TSan note: the coordinator forks; all DistCoordinator tests run it
// directly on the gtest thread with no ThreadPool alive in the parent,
// so the fork children never hold foreign locks.
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"
#include "dist/Protocol.h"
#include "dist/Shm.h"
#include "dist/Worker.h"
#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "serve/Protocol.h"
#include "runtime/Runner.h"
#include "runtime/SegmentSource.h"
#include "runtime/Workload.h"
#include "support/Cancel.h"
#include "support/FaultInject.h"
#include "support/ThreadPool.h"
#include "synth/Grassp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace grassp;

namespace {

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

struct SocketPair {
  int Fd[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fd), 0);
  }
  ~SocketPair() {
    if (Fd[0] >= 0)
      ::close(Fd[0]);
    if (Fd[1] >= 0)
      ::close(Fd[1]);
  }
};

TEST(DistProtocol, FrameRoundTripsOverARealSocket) {
  SocketPair S;
  std::vector<uint8_t> Payload = {1, 2, 3, 0xff, 0, 42};
  ASSERT_TRUE(dist::writeFrame(S.Fd[0], dist::MsgType::Task, Payload));
  dist::Frame F;
  ASSERT_EQ(dist::readFrameBlocking(S.Fd[1], &F), dist::RecvStatus::Ok);
  EXPECT_EQ(F.Type, dist::MsgType::Task);
  EXPECT_EQ(F.Payload, Payload);

  // Empty payloads are legal frames (Shutdown).
  ASSERT_TRUE(dist::writeFrame(S.Fd[0], dist::MsgType::Shutdown, {}));
  ASSERT_EQ(dist::readFrameBlocking(S.Fd[1], &F), dist::RecvStatus::Ok);
  EXPECT_EQ(F.Type, dist::MsgType::Shutdown);
  EXPECT_TRUE(F.Payload.empty());
}

TEST(DistProtocol, CorruptedByteIsCaughtByTheChecksum) {
  // Flip each byte position in turn: the receiver must classify every
  // one as Corrupt, never deliver a damaged payload as Ok.
  for (int64_t At = 0; At != 6; ++At) {
    SocketPair S;
    std::vector<uint8_t> Payload = {9, 8, 7, 6, 5, 4};
    ASSERT_TRUE(
        dist::writeFrame(S.Fd[0], dist::MsgType::Result, Payload, At));
    dist::Frame F;
    EXPECT_EQ(dist::readFrameBlocking(S.Fd[1], &F),
              dist::RecvStatus::Corrupt)
        << "byte " << At;
  }
}

TEST(DistProtocol, GapFrameTypesDecodeAsCorrupt) {
  // Types 4 and 7..15 belong to no message; a frame carrying one is a
  // corrupt type word, however sound its checksum.
  for (uint32_t Type : {0u, 4u, 7u, 15u, 24u}) {
    SocketPair S;
    ASSERT_TRUE(
        dist::writeFrame(S.Fd[0], static_cast<dist::MsgType>(Type), {1}));
    dist::Frame F;
    EXPECT_EQ(dist::readFrameBlocking(S.Fd[1], &F), dist::RecvStatus::Corrupt)
        << "type " << Type;
  }
}

TEST(DistProtocol, EofAndCorruptAreSticky) {
  SocketPair S;
  ASSERT_TRUE(dist::writeFrame(S.Fd[0], dist::MsgType::Result, {1, 2}, 0));
  dist::FrameReader Reader;
  ASSERT_EQ(Reader.fill(S.Fd[1]), dist::RecvStatus::Ok);
  dist::Frame F;
  EXPECT_EQ(Reader.next(&F), dist::RecvStatus::Corrupt);
  // Framing after a corrupt frame is untrusted: still Corrupt.
  EXPECT_EQ(Reader.next(&F), dist::RecvStatus::Corrupt);

  ::close(S.Fd[0]);
  S.Fd[0] = -1;
  dist::FrameReader Fresh;
  EXPECT_EQ(Fresh.fill(S.Fd[1]), dist::RecvStatus::Eof);
}

TEST(DistProtocol, WireReaderRejectsTruncationAndOverrun) {
  dist::WireWriter W;
  W.vecI64({10, -20, 30});
  std::vector<uint8_t> Bytes = W.bytes();

  // Truncate mid-vector: decode must fail, not read garbage.
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    dist::WireReader R(Bytes.data(), Cut);
    std::vector<int64_t> V;
    EXPECT_FALSE(R.vecI64(&V) && Cut < Bytes.size()) << "cut " << Cut;
  }
  dist::WireReader R(Bytes);
  std::vector<int64_t> V;
  ASSERT_TRUE(R.vecI64(&V));
  EXPECT_EQ(V, (std::vector<int64_t>{10, -20, 30}));
  EXPECT_TRUE(R.atEnd());
}

TEST(DistProtocol, MessageCodecsRoundTrip) {
  dist::HelloMsg H;
  H.Pid = 4242;
  H.PlanHash = 0xdeadbeefcafe1234ULL;
  dist::HelloMsg H2;
  ASSERT_TRUE(dist::decodeHello(dist::encodeHello(H), &H2));
  EXPECT_EQ(H2.Pid, H.Pid);
  EXPECT_EQ(H2.PlanHash, H.PlanHash);

  // A batched Task of two descriptors into the published mapping, one
  // of them an empty shard.
  dist::TaskMsg T;
  dist::TaskItem A;
  A.TaskId = 7;
  A.ShardIndex = 3;
  A.AttemptKey = dist::distAttemptKey(2, 1, 3);
  A.Generation = 5;
  A.Stripe = 2;
  A.Offset = 1024;
  A.Count = 4096;
  dist::TaskItem B;
  B.TaskId = 8;
  B.ShardIndex = 4;
  B.AttemptKey = dist::distAttemptKey(2, 0, 4);
  B.Generation = 5;
  B.Stripe = 0;
  B.Offset = 5120;
  B.Count = 0;
  T.Items = {A, B};
  dist::TaskMsg T2;
  ASSERT_TRUE(dist::decodeTask(dist::encodeTask(T), &T2));
  ASSERT_EQ(T2.Items.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    const dist::TaskItem &Want = T.Items[I];
    const dist::TaskItem &Got = T2.Items[I];
    EXPECT_EQ(Got.TaskId, Want.TaskId) << I;
    EXPECT_EQ(Got.ShardIndex, Want.ShardIndex) << I;
    EXPECT_EQ(Got.AttemptKey, Want.AttemptKey) << I;
    EXPECT_EQ(Got.Generation, Want.Generation) << I;
    EXPECT_EQ(Got.Stripe, Want.Stripe) << I;
    EXPECT_EQ(Got.Offset, Want.Offset) << I;
    EXPECT_EQ(Got.Count, Want.Count) << I;
  }

  // A three-stripe table, one of them empty.
  dist::PublishMsg Pub;
  Pub.Generation = 9;
  Pub.Stripes = {{16, 1 << 20}, {0, 0}, {0, 777}};
  dist::PublishMsg Pub2;
  ASSERT_TRUE(dist::decodePublish(dist::encodePublish(Pub), &Pub2));
  EXPECT_EQ(Pub2.Generation, Pub.Generation);
  ASSERT_EQ(Pub2.Stripes.size(), 3u);
  for (size_t K = 0; K != 3; ++K) {
    EXPECT_EQ(Pub2.Stripes[K].ByteOffset, Pub.Stripes[K].ByteOffset) << K;
    EXPECT_EQ(Pub2.Stripes[K].Elems, Pub.Stripes[K].Elems) << K;
  }

  // A Result carrying every WorkerOutput field, including the nested
  // mode-argument table; then a constant-prefix summary of several
  // segments (length, repair head and merged state).
  dist::ResultMsg M;
  M.TaskId = 9;
  M.ShardIndex = 1;
  M.Out.Found = true;
  M.Out.Boundary = -11;
  M.Out.D = {1, 2, 3};
  M.Out.CtrlCur = {0, 2};
  M.Out.ModeArg = {{{1, 2}, {3, 4}}, {}, {{-5, 6}}};
  M.Out.PrefixData = {42};
  M.Out.Distinct = {7, 8};
  dist::ResultMsg Scan;
  Scan.TaskId = 10;
  Scan.ShardIndex = 4;
  Scan.Out.Elems = 1ULL << 40;
  Scan.Out.D = {4, -4};
  Scan.Out.Head = {-1, 0};
  Scan.Out.Merged = {9, INT64_MIN};
  for (const dist::ResultMsg &In : {M, Scan}) {
    std::vector<uint8_t> Bytes = dist::encodeResult(In);
    dist::ResultMsg M2;
    ASSERT_TRUE(dist::decodeResult(Bytes, &M2));
    EXPECT_EQ(M2.TaskId, In.TaskId);
    EXPECT_EQ(M2.ShardIndex, In.ShardIndex);
    EXPECT_EQ(M2.Out.Elems, In.Out.Elems);
    EXPECT_EQ(M2.Out.Found, In.Out.Found);
    EXPECT_EQ(M2.Out.Boundary, In.Out.Boundary);
    EXPECT_EQ(M2.Out.D, In.Out.D);
    EXPECT_EQ(M2.Out.Head, In.Out.Head);
    EXPECT_EQ(M2.Out.Merged, In.Out.Merged);
    EXPECT_EQ(M2.Out.CtrlCur, In.Out.CtrlCur);
    EXPECT_EQ(M2.Out.ModeArg, In.Out.ModeArg);
    EXPECT_EQ(M2.Out.PrefixData, In.Out.PrefixData);
    EXPECT_EQ(M2.Out.Distinct, In.Out.Distinct);
    // Cut anywhere, the message no longer decodes.
    for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
      std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
      EXPECT_FALSE(dist::decodeResult(Short, &M2)) << "cut " << Cut;
    }
  }

  // Trailing junk after a well-formed message is corruption, not slack.
  std::vector<uint8_t> Padded = dist::encodeHello(H);
  Padded.push_back(0);
  EXPECT_FALSE(dist::decodeHello(Padded, &H2));
}

//===----------------------------------------------------------------------===//
// GDP2 frame layer
//===----------------------------------------------------------------------===//

/// The CRC32C implementations this host can run: the portable table
/// always, the SSE4.2 instruction when the CPU has it.
std::vector<dist::Crc32cFn> crcImpls() {
  std::vector<dist::Crc32cFn> Impls = {dist::crc32cPortable};
  if (dist::crc32cHardwareAvailable())
    Impls.push_back(dist::crc32cHardware);
  return Impls;
}

TEST(FrameCrc, CheckValueOnBothImplementations) {
  const uint8_t *Digits = reinterpret_cast<const uint8_t *>("123456789");
  for (dist::Crc32cFn Crc : crcImpls())
    EXPECT_EQ(Crc(0, Digits, 9), 0xE3069283u);
  EXPECT_EQ(dist::crc32c(0, Digits, 9), 0xE3069283u);
  // Continuing from an earlier result is the CRC of the concatenation.
  EXPECT_EQ(dist::crc32c(dist::crc32c(0, Digits, 4), Digits + 4, 5),
            0xE3069283u);
}

TEST(FrameCrc, HardwareAndPortableAgreeOnRandomBuffers) {
  if (!dist::crc32cHardwareAvailable())
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this host";
  std::mt19937_64 Gen(24);
  std::vector<uint8_t> Buf(65536 + 8);
  for (uint8_t &B : Buf)
    B = static_cast<uint8_t>(Gen());
  // Every length up to 64 (the ragged tails), random ones to 4096, and
  // the edges of the three-way blocks (3 x 256 and 3 x 8192 bytes).
  std::vector<size_t> Lens;
  for (size_t Len = 0; Len <= 64; ++Len)
    Lens.push_back(Len);
  for (int I = 0; I != 200; ++I)
    Lens.push_back(Gen() % 4097);
  for (size_t Len : {767, 768, 769, 4096, 24575, 24576, 25353, 65536})
    Lens.push_back(Len);
  for (size_t Off = 0; Off != 8; ++Off) {
    const uint8_t *P = Buf.data() + Off;
    for (size_t Len : Lens) {
      uint32_t Want = dist::crc32cPortable(0, P, Len);
      EXPECT_EQ(dist::crc32cHardware(0, P, Len), Want)
          << "offset " << Off << " length " << Len;
      size_t Cut = Gen() % (Len + 1);
      EXPECT_EQ(dist::crc32cHardware(dist::crc32cHardware(0, P, Cut), P + Cut,
                                     Len - Cut),
                Want)
          << "offset " << Off << " length " << Len << " cut " << Cut;
    }
  }
}

TEST(DistProtocol, EverySingleByteFlipInAFrameIsCorrupt) {
  std::vector<uint8_t> Payload(4096);
  for (size_t I = 0; I != Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 131 + 7);
  dist::FrameWriter W;
  W.payload().buffer() = Payload;
  std::vector<uint8_t> Wire;
  W.frameInto(dist::MsgType::Result, &Wire);
  ASSERT_EQ(Wire.size(), dist::FrameHeaderBytes + Payload.size());
  dist::Frame F;
  for (dist::Crc32cFn Crc : crcImpls()) {
    ASSERT_EQ(dist::decodeFrame(Wire.data(), Wire.size(), &F, Crc),
              dist::RecvStatus::Ok);
    EXPECT_EQ(F.Payload, Payload);
  }

  // Header included: magic [0,4), type [4,8), length [8,16), and both
  // halves of the checksum word [16,24).
  for (size_t At = 0; At != Wire.size(); ++At)
    for (uint8_t Mask : {0x01, 0x80, 0xff}) {
      Wire[At] ^= Mask;
      for (dist::Crc32cFn Crc : crcImpls())
        EXPECT_EQ(dist::decodeFrame(Wire.data(), Wire.size(), &F, Crc),
                  dist::RecvStatus::Corrupt)
            << "byte " << At << " mask " << int(Mask);
      Wire[At] ^= Mask;
    }

  // Through a socket the receiver never delivers a flipped frame. A flip
  // that raises the length word leaves it waiting for bytes that never
  // come, so it reads Eof; every other flip is Corrupt.
  for (size_t At = 0; At != Wire.size(); ++At) {
    SocketPair S;
    Wire[At] ^= 0x80;
    ASSERT_EQ(::send(S.Fd[0], Wire.data(), Wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Wire.size()));
    Wire[At] ^= 0x80;
    ::close(S.Fd[0]);
    S.Fd[0] = -1;
    dist::RecvStatus St = dist::readFrameBlocking(S.Fd[1], &F);
    bool InLength = At >= 8 && At < 16;
    if (InLength)
      EXPECT_NE(St, dist::RecvStatus::Ok) << "byte " << At;
    else
      EXPECT_EQ(St, dist::RecvStatus::Corrupt) << "byte " << At;
  }
}

/// Sends Wire[0, Limit) from a thread in pieces whose sizes cycle
/// through \p Pieces, then shuts the writing end; returns what one
/// FrameReader makes of the stream.
dist::RecvStatus receivePiecewise(const std::vector<uint8_t> &Wire,
                                  size_t Limit,
                                  const std::vector<size_t> &Pieces,
                                  dist::Frame *Out) {
  SocketPair S;
  std::thread Sender([&] {
    size_t Off = 0;
    for (size_t K = 0; Off < Limit; ++K) {
      size_t N = std::min(Pieces[K % Pieces.size()], Limit - Off);
      ssize_t W = ::send(S.Fd[0], Wire.data() + Off, N, MSG_NOSIGNAL);
      if (W < 0)
        return; // the reader gave up and closed its end.
      Off += static_cast<size_t>(W);
    }
    ::shutdown(S.Fd[0], SHUT_WR);
  });
  dist::FrameReader Reader;
  dist::RecvStatus St = Reader.read(S.Fd[1], Out);
  ::shutdown(S.Fd[1], SHUT_RDWR); // unblocks a sender still writing.
  Sender.join();
  return St;
}

/// A RunReq frame carrying \p Data, as ServeClient::run sends it.
std::vector<uint8_t> runReqFrame(const std::string &Program,
                                 const std::vector<int64_t> &Data) {
  dist::FrameWriter W;
  serve::encodeRunReq(Program, Data, W.payload());
  std::vector<uint8_t> Wire;
  W.frameInto(dist::MsgType::RunReq, &Wire);
  return Wire;
}

TEST(DistProtocol, MegabyteFrameSentInOddPiecesArrivesWhole) {
  std::vector<int64_t> Data(1 << 17); // 1 MiB of elements.
  std::mt19937_64 Gen(7);
  for (int64_t &X : Data)
    X = static_cast<int64_t>(Gen());
  Data[0] = INT64_MIN;
  Data[1] = INT64_MAX;
  const std::string Program = "(program sum)";
  std::vector<uint8_t> Wire = runReqFrame(Program, Data);

  dist::Frame F;
  ASSERT_EQ(receivePiecewise(Wire, Wire.size(), {1, 7, 4093}, &F),
            dist::RecvStatus::Ok);
  EXPECT_EQ(F.Type, dist::MsgType::RunReq);
  EXPECT_TRUE(std::equal(F.Payload.begin(), F.Payload.end(),
                         Wire.begin() + dist::FrameHeaderBytes,
                         Wire.end()));
  serve::RunReqMsg M;
  ASSERT_TRUE(serve::decodeRunReq(F.Payload, &M));
  EXPECT_EQ(M.Program, Program);
  EXPECT_EQ(M.Data, Data);
}

TEST(DistProtocol, InPlaceReceiveReusesTheCallersPayloadStorage) {
  // Two 1 MiB frames back to back into one Frame: the second lands in
  // the first one's storage, so a server reusing its frame stops
  // allocating per request.
  std::vector<int64_t> Data(1 << 17, 11);
  std::vector<uint8_t> Wire = runReqFrame("(program sum)", Data);
  SocketPair S;
  std::thread Sender([&] {
    for (int I = 0; I != 2; ++I)
      ASSERT_TRUE(::send(S.Fd[0], Wire.data(), Wire.size(), MSG_NOSIGNAL) ==
                  static_cast<ssize_t>(Wire.size()));
  });
  dist::FrameReader Reader;
  dist::Frame F;
  ASSERT_EQ(Reader.read(S.Fd[1], &F), dist::RecvStatus::Ok);
  const uint8_t *First = F.Payload.data();
  ASSERT_EQ(Reader.read(S.Fd[1], &F), dist::RecvStatus::Ok);
  Sender.join();
  EXPECT_EQ(F.Payload.data(), First);
  EXPECT_TRUE(std::equal(F.Payload.begin(), F.Payload.end(),
                         Wire.begin() + dist::FrameHeaderBytes, Wire.end()));
}

TEST(DistProtocol, MegabyteFrameCutShortReadsEof) {
  std::vector<int64_t> Data(1 << 17, -3);
  std::vector<uint8_t> Wire = runReqFrame("(program sum)", Data);
  std::vector<size_t> Cuts = {0,     1,     23,    24,    25,
                              4117,  65535, 65560, 65561, Wire.size() / 2,
                              Wire.size() - 8,  Wire.size() - 1};
  std::mt19937_64 Gen(3);
  for (int I = 0; I != 8; ++I)
    Cuts.push_back(Gen() % Wire.size());
  for (size_t Cut : Cuts) {
    dist::Frame F;
    EXPECT_EQ(receivePiecewise(Wire, Cut, {1, 7, 4093}, &F),
              dist::RecvStatus::Eof)
        << "cut at " << Cut;
  }
}

TEST(DistProtocol, RunReqDecodeFailsAtEveryTruncation) {
  dist::WireWriter W;
  serve::encodeRunReq("(program count)", {1, -2, INT64_MIN, INT64_MAX}, W);
  const std::vector<uint8_t> &Bytes = W.bytes();
  serve::RunReqMsg M;
  ASSERT_TRUE(serve::decodeRunReq(Bytes, &M));
  EXPECT_EQ(M.Program, "(program count)");
  EXPECT_EQ(M.Data, (std::vector<int64_t>{1, -2, INT64_MIN, INT64_MAX}));
  for (size_t Cut = 0; Cut != Bytes.size(); ++Cut)
    EXPECT_FALSE(serve::decodeRunReq(
        std::vector<uint8_t>(Bytes.begin(), Bytes.begin() + Cut), &M))
        << "cut " << Cut;
}

//===----------------------------------------------------------------------===//
// Decorrelated-jitter backoff (RunPolicy + coordinator shared helper)
//===----------------------------------------------------------------------===//

TEST(Backoff, StaysWithinBaseAndCap) {
  const double Base = 0.001, Cap = 0.05;
  double Prev = Base;
  for (uint64_t Key = 0; Key != 1000; ++Key) {
    double S = runtime::decorrelatedBackoff(Base, Cap, Prev, 42, Key);
    EXPECT_GE(S, Base) << Key;
    EXPECT_LE(S, Cap) << Key;
    // Decorrelated jitter: next sleep is drawn from [Base, 3*Prev].
    EXPECT_LE(S, std::min(Cap, 3.0 * std::max(Prev, Base)) + 1e-12) << Key;
    Prev = S;
  }
}

TEST(Backoff, DeterministicInSeedAndKey) {
  double A = runtime::decorrelatedBackoff(0.001, 1.0, 0.004, 7, 123);
  double B = runtime::decorrelatedBackoff(0.001, 1.0, 0.004, 7, 123);
  EXPECT_EQ(A, B); // exact replay from (seed, key).
  double C = runtime::decorrelatedBackoff(0.001, 1.0, 0.004, 8, 123);
  double D = runtime::decorrelatedBackoff(0.001, 1.0, 0.004, 7, 124);
  EXPECT_NE(A, C);
  EXPECT_NE(A, D);
}

TEST(Backoff, GrowsTowardTheCapAndClampsThere) {
  const double Base = 0.001, Cap = 0.02;
  // Whatever the draws, 40 consecutive retries must have saturated well
  // past the base, and never past the cap.
  double Prev = Base, MaxSeen = 0;
  for (uint64_t K = 0; K != 40; ++K) {
    Prev = runtime::decorrelatedBackoff(Base, Cap, Prev, 1, K);
    MaxSeen = std::max(MaxSeen, Prev);
  }
  EXPECT_LE(MaxSeen, Cap);
  EXPECT_GT(MaxSeen, Base);
  // A Prev beyond the cap is clamped back inside it.
  EXPECT_LE(runtime::decorrelatedBackoff(Base, Cap, 10.0, 1, 0), Cap);
}

TEST(Backoff, ZeroBaseMeansNoSleep) {
  EXPECT_EQ(runtime::decorrelatedBackoff(0.0, 1.0, 0.5, 1, 1), 0.0);
  EXPECT_EQ(runtime::decorrelatedBackoff(-1.0, 1.0, 0.5, 1, 1), 0.0);
}

//===----------------------------------------------------------------------===//
// ThreadPool::drain(Deadline) shedding
//===----------------------------------------------------------------------===//

TEST(PoolDrain, ExpiredDeadlineShedsExactlyTheUnstartedTasks) {
  ThreadPool Pool(2);
  std::mutex Mu;
  std::condition_variable Cv;
  bool Release = false;
  std::atomic<unsigned> Ran{0};

  // Two blockers occupy both threads; six queued tasks never start
  // before the deadline expires.
  for (int I = 0; I != 2; ++I)
    Pool.submit([&] {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return Release; });
      ++Ran;
    });
  // Give the blockers time to actually occupy the workers, so exactly
  // six tasks sit queued-not-running.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int I = 0; I != 6; ++I)
    Pool.submit([&] { ++Ran; });

  std::thread Releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::lock_guard<std::mutex> Lock(Mu);
    Release = true;
    Cv.notify_all();
  });
  bool AllRan = Pool.drain(Deadline::after(0.05));
  Releaser.join();

  EXPECT_FALSE(AllRan);
  // In-flight tasks completed; queued-but-unstarted were discarded.
  EXPECT_EQ(Ran.load(), 2u);
  EXPECT_EQ(Pool.discardedTasks(), 6u);

  // The pool stays usable after a shedding drain.
  Pool.submit([&] { ++Ran; });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 3u);
  EXPECT_EQ(Pool.discardedTasks(), 6u);
}

TEST(PoolDrain, GenerousDeadlineRunsEverythingAndDiscardsNothing) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Ran{0};
  for (int I = 0; I != 16; ++I)
    Pool.submit([&] { ++Ran; });
  EXPECT_TRUE(Pool.drain(Deadline::after(10.0)));
  EXPECT_EQ(Ran.load(), 16u);
  EXPECT_EQ(Pool.discardedTasks(), 0u);
}

//===----------------------------------------------------------------------===//
// DistCoordinator: real processes, real kills
//===----------------------------------------------------------------------===//

const synth::SynthesisResult &synthFor(const char *Name) {
  static std::map<std::string, synth::SynthesisResult> Cache;
  auto It = Cache.find(Name);
  if (It == Cache.end())
    It = Cache.emplace(Name, synth::synthesize(*lang::findBenchmark(Name)))
             .first;
  return It->second;
}

struct DistRun {
  const lang::SerialProgram *P;
  std::vector<int64_t> Data;
  std::vector<runtime::SegmentView> Segs;
  runtime::CompiledProgram CP;
  runtime::CompiledPlan Plan;
  int64_t Serial;

  explicit DistRun(const char *Name = "sum", size_t N = 6000,
                   unsigned Shards = 8)
      : P(lang::findBenchmark(Name)),
        Data(runtime::generateWorkload(*P, N, 21)),
        Segs(runtime::partition(Data, Shards)), CP(*P),
        Plan(*P, synthFor(Name).Plan), Serial(CP.runSerial(Segs)) {}
};

/// A sealed one-stripe region over \p Data, stamped as generation \p Gen.
/// Invalid when no sealable memfd could be made.
dist::ShmRegion sealedRegion(const std::vector<int64_t> &Data, uint64_t Gen) {
  dist::ShmRegion R;
  int Fd = dist::shmCreateBuffer();
  if (Fd < 0)
    return R;
  R.Stripes.push_back({Fd, 0, Data.size()});
  if (!dist::shmAppend(Fd, Data.data(), Data.size() * 8) ||
      !dist::shmSeal(Fd)) {
    R.reset();
    return R;
  }
  R.Generation = Gen;
  return R;
}

/// A workerMain child on one end of a socketpair, forked as the
/// coordinator's pool would fork it; the test plays the coordinator on
/// the other end.
struct ForkedWorker {
  SocketPair S;
  pid_t Pid = -1;

  explicit ForkedWorker(const runtime::CompiledPlan &Plan) {
    Pid = ::fork();
    if (Pid == 0) {
      ::close(S.Fd[0]);
      dist::workerMain(S.Fd[1], Plan, nullptr);
    }
    ::close(S.Fd[1]);
    S.Fd[1] = -1;
  }
  int fd() const { return S.Fd[0]; }
  /// Sends \p Region on a Publish frame, every stripe fd attached.
  bool publish(const dist::ShmRegion &Region) {
    dist::PublishMsg Pub;
    Pub.Generation = Region.Generation;
    std::vector<int> Fds;
    for (const dist::ShmStripe &St : Region.Stripes) {
      Pub.Stripes.push_back({St.ByteOffset, St.Elems});
      Fds.push_back(St.Fd);
    }
    dist::FrameWriter Out;
    dist::encodePublish(Pub, Out.payload());
    return Out.sendWithFds(fd(), dist::MsgType::Publish, Fds);
  }
  /// Reads the next frame (or how the stream ended).
  dist::RecvStatus next(dist::Frame *F) {
    for (;;) {
      dist::RecvStatus St = Reader.next(F);
      if (St != dist::RecvStatus::NeedMore)
        return St;
      St = Reader.fill(fd());
      if (St != dist::RecvStatus::Ok)
        return St;
    }
  }
  /// Reaps the child: its exit status, or -1 when a signal ended it.
  int wait() {
    int Status = 0;
    if (::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status))
      return -1;
    return WEXITSTATUS(Status);
  }

private:
  dist::FrameReader Reader;
};

dist::TaskMsg oneItem(uint64_t Generation, uint64_t Stripe, uint64_t Count) {
  dist::TaskItem It;
  It.TaskId = 1;
  It.AttemptKey = dist::distAttemptKey(0, 0, 0);
  It.Generation = Generation;
  It.Stripe = Stripe;
  It.Count = Count;
  dist::TaskMsg T;
  T.Items = {It};
  return T;
}

TEST(DistCoordinator, CleanRunsMatchSerialAcrossPlanShapes) {
  // One benchmark per plan family: scalar fold, multi-state fold, bag
  // (hash-set distinct), and an order-sensitive mode machine.
  for (const char *Name :
       {"sum", "second_max", "count_distinct", "count_102"}) {
    DistRun R(Name);
    dist::DistConfig Cfg;
    Cfg.Workers = 3;
    dist::DistCoordinator Coord(R.Plan, Cfg);
    dist::DistRunReport Rep = Coord.run(R.Segs);
    EXPECT_EQ(Rep.Output, R.Serial) << Name;
    EXPECT_EQ(Rep.Shards, 8u) << Name;
    EXPECT_EQ(Rep.ShardsCompleted, 8u) << Name;
    EXPECT_EQ(Rep.WorkersKilled, 0u) << Name;
    EXPECT_EQ(Rep.SerialRefolds, 0u) << Name;
    EXPECT_GT(Rep.BytesShipped, 0u) << Name;
  }
}

TEST(DistCoordinator, PlantedSigkillIsDetectedViaWifsignaled) {
  DistRun R;
  FaultInjector FI(5);
  FaultSpec Kill;
  // Shard 2's first attempt: the worker raise(SIGKILL)s itself.
  Kill.Keys = {dist::distAttemptKey(0, 0, 2)};
  FI.arm(dist::SiteWorkerKill, Kill);

  dist::DistConfig Cfg;
  Cfg.Workers = 4;
  Cfg.Faults = &FI;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  // The death was a real signal, decoded from waitpid status.
  EXPECT_EQ(Rep.WorkersKilled, 1u);
  EXPECT_EQ(Rep.WorkersExited, 0u);
  EXPECT_GE(Rep.ShardsReassigned, 1u);
  EXPECT_GE(Rep.Retries, 1u);
  EXPECT_GE(Rep.WorkersRestarted, 1u);
  EXPECT_EQ(Rep.SerialRefolds, 0u);
}

TEST(DistCoordinator, PlantedExit137IsDetectedViaWifexited) {
  DistRun R;
  FaultInjector FI(5);
  FaultSpec Crash;
  Crash.Keys = {dist::distAttemptKey(0, 0, 1)};
  FI.arm(dist::SiteWorkerExit, Crash);

  dist::DistConfig Cfg;
  Cfg.Workers = 4;
  Cfg.Faults = &FI;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.WorkersExited, 1u); // _exit(137): exited, not signaled.
  EXPECT_EQ(Rep.WorkersKilled, 0u);
  EXPECT_GE(Rep.ShardsReassigned, 1u);
}

TEST(DistCoordinator, CorruptReplyFrameIsCaughtNeverMiscounted) {
  DistRun R;
  FaultInjector FI(5);
  FaultSpec Corrupt;
  Corrupt.Keys = {dist::distAttemptKey(0, 0, 3)};
  FI.arm(dist::SiteFrameCorrupt, Corrupt);

  dist::DistConfig Cfg;
  Cfg.Workers = 4;
  Cfg.Faults = &FI;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  // The checksum rejected the damaged frame and the shard was redone —
  // a corrupt frame may cost time, never correctness.
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_GE(Rep.CorruptFrames, 1u);
  EXPECT_GE(Rep.Retries, 1u);
}

TEST(DistCoordinator, HungWorkerIsKilledOrOutracedBySpeculation) {
  DistRun R;
  FaultInjector FI(5);
  FaultSpec Hang;
  Hang.Keys = {dist::distAttemptKey(0, 0, 0)};
  FI.arm(dist::SiteWorkerHang, Hang);

  dist::DistConfig Cfg;
  Cfg.Workers = 4;
  Cfg.Faults = &FI;
  Cfg.TaskDeadlineSeconds = 0.04; // tight: the test stays fast.
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  // Either the backup committed first or the hang-kill fired (with the
  // requeued attempt committing); both count the straggler machinery.
  EXPECT_GE(Rep.SpeculativeLaunches + Rep.HangsDetected, 1u);
  EXPECT_EQ(Rep.SerialRefolds, 0u);
}

TEST(DistCoordinator, EveryAttemptDyingFallsBackToSerialRefold) {
  DistRun R("sum", 2000, 4);
  FaultInjector FI(5);
  FaultSpec Kill;
  Kill.KeyModulo = 1; // every attempt of every shard dies.
  FI.arm(dist::SiteWorkerExit, Kill);

  dist::DistConfig Cfg;
  Cfg.Workers = 2;
  Cfg.MaxRetries = 1;
  Cfg.MaxWorkerRestarts = 64;
  Cfg.Faults = &FI;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  // The guaranteed last resort: the coordinator refolds in-process and
  // the answer is still exact.
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.SerialRefolds, 4u);
  EXPECT_EQ(Rep.ShardsCompleted, 4u);
}

// The acceptance sweep: ~8 workers, seeded probabilistic kills across
// several seeds; every run must be bit-identical to the serial fold and
// the sweep as a whole must have killed real workers and reassigned
// real shards (all verified through waitpid, not bookkeeping).
TEST(DistCoordinator, SeededKillSweepStaysBitIdentical) {
  DistRun R("second_max", 12000, 24);
  unsigned Killed = 0, Reassigned = 0;
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    FaultInjector FI(Seed);
    FaultSpec Kill;
    Kill.Probability = 0.18;
    FI.arm(dist::SiteWorkerKill, Kill);
    FaultSpec Crash;
    Crash.Probability = 0.12;
    FI.arm(dist::SiteWorkerExit, Crash);

    dist::DistConfig Cfg;
    Cfg.Workers = 8;
    Cfg.Faults = &FI;
    Cfg.BackoffJitterSeed = Seed;
    Cfg.MaxWorkerRestarts = 1000;
    dist::DistCoordinator Coord(R.Plan, Cfg);
    dist::DistRunReport Rep = Coord.run(R.Segs);
    EXPECT_EQ(Rep.Output, R.Serial) << "seed " << Seed;
    EXPECT_EQ(Rep.ShardsCompleted, 24u) << "seed " << Seed;
    Killed += Rep.WorkersKilled + Rep.WorkersExited;
    Reassigned += Rep.ShardsReassigned;
  }
  EXPECT_GT(Killed, 0u);
  EXPECT_GT(Reassigned, 0u);
}

TEST(DistCoordinator, PoolAndFaultKeysAdvanceAcrossRuns) {
  DistRun R;
  FaultInjector FI(5);
  FaultSpec Kill;
  // Planted on run 0 only: run 1's keys have RunIndex 1 << 32 mixed in,
  // so the same shard's first attempt must NOT die again.
  Kill.Keys = {dist::distAttemptKey(0, 0, 2)};
  FI.arm(dist::SiteWorkerKill, Kill);

  dist::DistConfig Cfg;
  Cfg.Workers = 3;
  Cfg.Faults = &FI;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  EXPECT_EQ(Coord.runIndex(), 0u);
  dist::DistRunReport First = Coord.run(R.Segs);
  EXPECT_EQ(First.Output, R.Serial);
  EXPECT_EQ(First.WorkersKilled, 1u);

  EXPECT_EQ(Coord.runIndex(), 1u);
  EXPECT_GE(Coord.liveWorkers(), 1u);
  dist::DistRunReport Second = Coord.run(R.Segs);
  EXPECT_EQ(Second.Output, R.Serial);
  EXPECT_EQ(Second.WorkersKilled, 0u); // the pattern did not repeat.
  EXPECT_EQ(Second.ShardsCompleted, 8u);
}

TEST(DistCoordinator, PreFiredTokenCancelsWithoutCommitting) {
  DistRun R;
  CancelToken Token = CancelToken::root();
  Token.cancel();
  dist::DistConfig Cfg;
  Cfg.Workers = 2;
  Cfg.Token = Token;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_TRUE(Rep.Cancelled);
  EXPECT_LT(Rep.ShardsCompleted, 8u);
}

TEST(DistCoordinator, ShutdownIsIdempotentAndReapsEveryWorker) {
  DistRun R;
  dist::DistConfig Cfg;
  Cfg.Workers = 3;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  EXPECT_EQ(Coord.run(R.Segs).Output, R.Serial);
  EXPECT_GE(Coord.liveWorkers(), 1u);
  Coord.shutdown();
  EXPECT_EQ(Coord.liveWorkers(), 0u);
  Coord.shutdown(); // second call is a no-op, not a crash.
  EXPECT_EQ(Coord.liveWorkers(), 0u);
}

/// Sleeps past the Hello deadline: what an idle pool must survive.
void idlePastTheHelloDeadline() {
  std::this_thread::sleep_for(
      std::chrono::duration<double>(dist::HelloTimeoutSeconds + 0.1));
}

TEST(DistCoordinator, PrewarmForksTheFullPoolBeforeAnyRun) {
  // Multi-threaded embedders (DiffOracle) prewarm before starting their
  // ThreadPool so the bulk of forks comes from a single-threaded parent.
  // The first run may come long after: the workers' Hellos wait unread
  // in their sockets meanwhile, and nobody owes anything else.
  DistRun R;
  dist::DistConfig Cfg;
  Cfg.Workers = 3;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  EXPECT_EQ(Coord.liveWorkers(), 0u);
  Coord.prewarm();
  EXPECT_EQ(Coord.liveWorkers(), 3u);
  Coord.prewarm(); // idempotent: the pool is already full.
  EXPECT_EQ(Coord.liveWorkers(), 3u);
  idlePastTheHelloDeadline();
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.WorkersSpawned, 0u); // run() had nothing left to fork.
  EXPECT_EQ(Rep.HangsDetected, 0u);
  EXPECT_EQ(Rep.WorkersRestarted, 0u);
  EXPECT_EQ(Rep.WorkersKilled, 0u);
}

TEST(DistCoordinator, IdleWorkersOweNothingAcrossAGap) {
  // A warm pool, an idle gap past every protocol deadline, then a run
  // with fewer shards than workers: the two workers that get no shard
  // stay idle the whole run, and an idle worker owes no frame.
  DistRun R("sum", 6000, 8);
  dist::DistConfig Cfg;
  Cfg.Workers = 4;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  ASSERT_EQ(Coord.run(R.Segs).Output, R.Serial);
  idlePastTheHelloDeadline();
  std::vector<runtime::SegmentView> Two = runtime::partition(R.Data, 2);
  dist::DistRunReport Rep = Coord.run(Two);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.WorkersSpawned, 0u);
  EXPECT_EQ(Rep.HangsDetected, 0u);
  EXPECT_EQ(Rep.WorkersRestarted, 0u);
  EXPECT_EQ(Rep.WorkersKilled, 0u);
  EXPECT_EQ(Coord.liveWorkers(), 4u);
}

TEST(DistCoordinator, WorkerThatNeverSaysHelloIsKilledAtItsDeadline) {
  // Every spawn hangs before its Hello. Each is SIGKILLed once it owes
  // the Hello past HelloTimeoutSeconds; the two respawns hang the same
  // way, the pool runs dry, and every shard refolds serially — exactly.
  DistRun R("sum", 6000, 8);
  FaultInjector FI(5);
  FaultSpec Mute;
  Mute.KeyModulo = 1;
  FI.arm(dist::SiteWorkerHello, Mute);
  dist::DistConfig Cfg;
  Cfg.Workers = 2;
  Cfg.MaxWorkerRestarts = 2;
  Cfg.Faults = &FI;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.WorkersSpawned, 4u);
  EXPECT_EQ(Rep.WorkersRestarted, 2u);
  EXPECT_EQ(Rep.HangsDetected, 4u);
  EXPECT_EQ(Rep.WorkersKilled, 4u);
  EXPECT_EQ(Rep.TaskFrames, 0u);
  EXPECT_EQ(Rep.SerialRefolds, 8u);
  EXPECT_EQ(Coord.liveWorkers(), 0u);
  // Two generations of workers, each killed at its deadline: not
  // before it, and within a bound after it.
  EXPECT_GE(Rep.WallSeconds, 2 * dist::HelloTimeoutSeconds);
  EXPECT_LT(Rep.WallSeconds, 2 * dist::HelloTimeoutSeconds + 2.0);
}

TEST(DistCoordinator, SimultaneousHangsSurviveMidSweepRespawns) {
  // Every attempt of every shard hangs, so one hang sweep routinely
  // reaps SEVERAL workers back to back and the next tick refills all of
  // their slots at once. Pins that per-slot state survives mass
  // reap-and-refill and every shard still lands on the last resort.
  DistRun R("sum", 2000, 6);
  FaultInjector FI(5);
  FaultSpec Hang;
  Hang.KeyModulo = 1;
  FI.arm(dist::SiteWorkerHang, Hang);

  dist::DistConfig Cfg;
  Cfg.Workers = 3;
  Cfg.MaxRetries = 1;
  Cfg.Faults = &FI;
  Cfg.TaskDeadlineSeconds = 0.02; // hang-kill at 40ms: the test stays fast.
  // One shard per task frame: with the default batching, a single
  // hang-kill can exhaust up to BatchShards attempts at once and the
  // per-shard hang accounting below would undercount depending on which
  // workers were idle at dispatch time (flaky under machine load).
  Cfg.BatchShards = 1;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  // No attempt ever commits, so every shard lands on the last resort —
  // and the answer is still exact.
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.SerialRefolds, 6u);
  EXPECT_GE(Rep.HangsDetected, 6u);
  EXPECT_GE(Rep.WorkersRestarted, 6u);
}

//===----------------------------------------------------------------------===//
// Shared-memory transport: codec fuzz, mapping windows, fd passing
//===----------------------------------------------------------------------===//

TEST(DistProtocol, TaskCodecRejectsMalformedPayloads) {
  dist::TaskMsg T;
  dist::TaskItem A;
  A.TaskId = 1;
  A.ShardIndex = 0;
  A.AttemptKey = 7;
  A.Generation = 4;
  A.Stripe = 0;
  A.Offset = 0;
  A.Count = 100;
  dist::TaskItem B;
  B.TaskId = 2;
  B.ShardIndex = 1;
  B.AttemptKey = 8;
  B.Generation = 4;
  B.Stripe = 1;
  B.Offset = 100;
  B.Count = 50;
  T.Items = {A, B};
  std::vector<uint8_t> P = dist::encodeTask(T);

  // Truncation at every byte boundary must decode false, never crash or
  // deliver a partial batch.
  for (size_t N = 0; N != P.size(); ++N) {
    std::vector<uint8_t> Cut(P.begin(), P.begin() + N);
    dist::TaskMsg Out;
    EXPECT_FALSE(dist::decodeTask(Cut, &Out)) << "truncated at " << N;
  }
  // Trailing junk fails the final atEnd() check.
  {
    std::vector<uint8_t> Junk = P;
    Junk.push_back(0xab);
    dist::TaskMsg Out;
    EXPECT_FALSE(dist::decodeTask(Junk, &Out));
  }
  // An empty batch is not a legal Task frame.
  {
    dist::TaskMsg Empty;
    dist::TaskMsg Out;
    EXPECT_FALSE(dist::decodeTask(dist::encodeTask(Empty), &Out));
  }
  // Item counts beyond MaxTaskItems are a corrupt length word.
  {
    dist::WireWriter W;
    W.u64(dist::MaxTaskItems + 1);
    dist::TaskMsg Out;
    EXPECT_FALSE(dist::decodeTask(W.take(), &Out));
  }
  // A descriptor whose Count could never fit a frame is refused even
  // though no payload bytes back it.
  {
    dist::TaskMsg Huge = T;
    Huge.Items[1].Count = dist::MaxFramePayloadBytes; // elems, not bytes.
    dist::TaskMsg Out;
    EXPECT_FALSE(dist::decodeTask(dist::encodeTask(Huge), &Out));
  }
  // So is a stripe no Publish frame could have announced; the last
  // legal stripe index still decodes.
  {
    dist::TaskMsg Far = T;
    Far.Items[1].Stripe = dist::MaxFrameFds;
    dist::TaskMsg Out;
    EXPECT_FALSE(dist::decodeTask(dist::encodeTask(Far), &Out));
    Far.Items[1].Stripe = dist::MaxFrameFds - 1;
    ASSERT_TRUE(dist::decodeTask(dist::encodeTask(Far), &Out));
    EXPECT_EQ(Out.Items[1].Stripe, dist::MaxFrameFds - 1);
  }
}

TEST(DistProtocol, PublishCodecRejectsTruncationAndJunk) {
  dist::PublishMsg M;
  M.Generation = 2;
  M.Stripes = {{16, 777}, {0, 300}};
  std::vector<uint8_t> P = dist::encodePublish(M);
  // Truncation anywhere — inside the header words, the stripe count or
  // any stripe's geometry — decodes false.
  for (size_t N = 0; N != P.size(); ++N) {
    std::vector<uint8_t> Cut(P.begin(), P.begin() + N);
    dist::PublishMsg Out;
    EXPECT_FALSE(dist::decodePublish(Cut, &Out)) << "truncated at " << N;
  }
  std::vector<uint8_t> Junk = P;
  Junk.push_back(0);
  dist::PublishMsg Out;
  EXPECT_FALSE(dist::decodePublish(Junk, &Out));
  // A table of no stripes announces nothing to map, and one of more
  // than MaxFrameFds stripes could never have its fds delivered.
  dist::PublishMsg Empty = M;
  Empty.Stripes.clear();
  EXPECT_FALSE(dist::decodePublish(dist::encodePublish(Empty), &Out));
  dist::PublishMsg Wide = M;
  Wide.Stripes.assign(dist::MaxFrameFds + 1, {0, 1});
  EXPECT_FALSE(dist::decodePublish(dist::encodePublish(Wide), &Out));
  Wide.Stripes.resize(dist::MaxFrameFds);
  ASSERT_TRUE(dist::decodePublish(dist::encodePublish(Wide), &Out));
  EXPECT_EQ(Out.Stripes.size(), size_t{dist::MaxFrameFds});
}

TEST(DistProtocol, FrameWriterReusesBuffersAndRestoresCorruption) {
  // One writer, three frames: a clean one, a corrupted one, then a
  // clean one again. The corruption is an in-place flip that must be
  // undone after the send — if it leaked into the reused buffer, the
  // third frame would either carry the flipped byte or double-flip.
  // Fresh socketpair per frame: Corrupt is sticky per-reader by design,
  // and readFrameBlocking discards whatever a burst left buffered.
  dist::FrameWriter W;

  dist::ResultMsg R;
  R.TaskId = 11;
  R.ShardIndex = 2;
  R.Out.Elems = 3;
  R.Out.D = {5, -9};
  R.Out.Head = {7};
  R.Out.Merged = {2, 6};

  uint64_t CleanBytes = 0;
  {
    SocketPair S;
    dist::encodeResult(R, W.payload());
    ASSERT_TRUE(W.send(S.Fd[0], dist::MsgType::Result));
    CleanBytes = W.lastFrameBytes();
    EXPECT_GT(CleanBytes, dist::FrameHeaderBytes);
    dist::Frame F;
    ASSERT_EQ(dist::readFrameBlocking(S.Fd[1], &F), dist::RecvStatus::Ok);
    dist::ResultMsg Got;
    ASSERT_TRUE(dist::decodeResult(F.Payload, &Got));
    EXPECT_EQ(Got.Out, R.Out);
  }
  {
    SocketPair S;
    dist::encodeResult(R, W.payload());
    ASSERT_TRUE(W.send(S.Fd[0], dist::MsgType::Result, /*CorruptByteAt=*/3));
    EXPECT_EQ(W.lastFrameBytes(), CleanBytes);
    dist::Frame F;
    EXPECT_EQ(dist::readFrameBlocking(S.Fd[1], &F), dist::RecvStatus::Corrupt);
  }
  {
    // The corrupting flip was undone after the send: the next frame out
    // of the SAME writer decodes byte-for-byte clean.
    SocketPair S;
    dist::encodeResult(R, W.payload());
    ASSERT_TRUE(W.send(S.Fd[0], dist::MsgType::Result));
    EXPECT_EQ(W.lastFrameBytes(), CleanBytes);
    dist::Frame F;
    ASSERT_EQ(dist::readFrameBlocking(S.Fd[1], &F), dist::RecvStatus::Ok);
    dist::ResultMsg Got;
    ASSERT_TRUE(dist::decodeResult(F.Payload, &Got));
    EXPECT_EQ(Got.TaskId, R.TaskId);
    EXPECT_EQ(Got.Out, R.Out);
  }
}

TEST(DistShm, WindowMapsSealedBufferAndBoundsChecks) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  std::vector<int64_t> Vals(3000);
  for (size_t I = 0; I != Vals.size(); ++I)
    Vals[I] = static_cast<int64_t>(I) * 7 - 100;

  // Two stripes: the first 1000 values, then the other 2000.
  dist::ShmRegion R;
  for (size_t Begin : {size_t{0}, size_t{1000}}) {
    size_t End = Begin == 0 ? 1000 : Vals.size();
    int Fd = dist::shmCreateBuffer();
    ASSERT_GE(Fd, 0);
    R.Stripes.push_back({Fd, 0, End - Begin});
    ASSERT_TRUE(dist::shmAppend(Fd, Vals.data() + Begin, (End - Begin) * 8));
    ASSERT_TRUE(dist::shmSeal(Fd));
  }
  R.Generation = 1;

  dist::ShmWindow Win;
  runtime::SegmentView V;
  // Whole stripes.
  ASSERT_TRUE(Win.map(R, 0, 0, 1000, &V));
  ASSERT_EQ(V.Size, 1000u);
  EXPECT_TRUE(std::equal(Vals.begin(), Vals.begin() + 1000, V.Data));
  ASSERT_TRUE(Win.map(R, 1, 0, 2000, &V));
  ASSERT_EQ(V.Size, 2000u);
  EXPECT_TRUE(std::equal(Vals.begin() + 1000, Vals.end(), V.Data));
  // An interior window whose byte offset is not page-aligned; offsets
  // are within the stripe.
  ASSERT_TRUE(Win.map(R, 1, 513, 1000, &V));
  ASSERT_EQ(V.Size, 1000u);
  EXPECT_EQ(V.Data[0], Vals[1513]);
  EXPECT_EQ(V.Data[999], Vals[2512]);
  // Empty windows are legal and need no mapping.
  ASSERT_TRUE(Win.map(R, 0, 100, 0, &V));
  EXPECT_EQ(V.Size, 0u);
  // Out-of-range descriptors are refused, including overflow-bait and
  // windows that would run from one stripe into the next.
  EXPECT_FALSE(Win.map(R, 0, 1001, 0, &V));
  EXPECT_FALSE(Win.map(R, 0, 0, 1001, &V));
  EXPECT_FALSE(Win.map(R, 0, 999, 2, &V));
  EXPECT_FALSE(Win.map(R, 1, 1999, 2, &V));
  EXPECT_FALSE(Win.map(R, 1, UINT64_MAX - 1, 4, &V));
  // So are stripes the table does not hold.
  EXPECT_FALSE(Win.map(R, 2, 0, 1, &V));
  EXPECT_FALSE(Win.map(R, UINT64_MAX, 0, 0, &V));
  R.reset();
  EXPECT_FALSE(R.valid());
}

TEST(DistProtocol, PublishFrameCarriesEveryStripeFdViaScmRights) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // The coordinator side: build a sealed two-stripe region and Publish
  // it with both fds attached. The worker side: receive frame + fds
  // together, then map a window of each stripe through the RECEIVED fds
  // and read the actual values back.
  std::vector<std::vector<int64_t>> Vals = {{4, 8, 15}, {16, 23, 42, 99}};
  std::vector<int> Fds;
  dist::PublishMsg M;
  M.Generation = 5;
  for (const std::vector<int64_t> &V : Vals) {
    int Fd = dist::shmCreateBuffer();
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(dist::shmAppend(Fd, V.data(), V.size() * 8));
    ASSERT_TRUE(dist::shmSeal(Fd));
    Fds.push_back(Fd);
    M.Stripes.push_back({0, V.size()});
  }

  SocketPair S;
  dist::FrameWriter W;
  dist::encodePublish(M, W.payload());
  ASSERT_TRUE(W.sendWithFds(S.Fd[0], dist::MsgType::Publish, Fds));
  for (int Fd : Fds)
    ::close(Fd); // Sender's copies; the in-flight duplicates survive.

  dist::FrameReader Reader;
  std::vector<int> GotFds;
  ASSERT_EQ(Reader.fill(S.Fd[1], &GotFds), dist::RecvStatus::Ok);
  dist::Frame F;
  ASSERT_EQ(Reader.next(&F), dist::RecvStatus::Ok);
  EXPECT_EQ(F.Type, dist::MsgType::Publish);
  dist::PublishMsg Got;
  ASSERT_TRUE(dist::decodePublish(F.Payload, &Got));
  EXPECT_EQ(Got.Generation, M.Generation);
  ASSERT_EQ(Got.Stripes.size(), 2u);
  ASSERT_EQ(GotFds.size(), 2u);

  dist::ShmRegion R;
  R.Generation = Got.Generation;
  for (size_t K = 0; K != 2; ++K)
    R.Stripes.push_back(
        {GotFds[K], Got.Stripes[K].ByteOffset, Got.Stripes[K].Elems});
  dist::ShmWindow Win;
  runtime::SegmentView V;
  ASSERT_TRUE(Win.map(R, 0, 1, 2, &V));
  ASSERT_EQ(V.Size, 2u);
  EXPECT_EQ(V.Data[0], 8);
  EXPECT_EQ(V.Data[1], 15);
  ASSERT_TRUE(Win.map(R, 1, 2, 2, &V));
  ASSERT_EQ(V.Size, 2u);
  EXPECT_EQ(V.Data[0], 42);
  EXPECT_EQ(V.Data[1], 99);
  Win.unmap();
  R.reset();
}

TEST(DistProtocol, MoreFdsThanAFrameCarriesAreRefusedBeforeSending) {
  // The receiver reserves control room for MaxFrameFds descriptors; the
  // sender refuses a larger set instead of letting the kernel truncate
  // it silently.
  SocketPair S;
  dist::FrameWriter W;
  W.payload().u64(0);
  std::vector<int> Fds(dist::MaxFrameFds + 1, S.Fd[0]);
  EXPECT_FALSE(W.sendWithFds(S.Fd[0], dist::MsgType::Shutdown, Fds));
}

TEST(DistProtocol, UnsolicitedFdsAreClosedNotLeaked) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // A peer that attaches an fd to a frame the receiver reads with the
  // fd-less fill() must not leak the descriptor into the process.
  int Fd = dist::shmCreateBuffer();
  ASSERT_GE(Fd, 0);
  int64_t One = 1;
  ASSERT_TRUE(dist::shmAppend(Fd, &One, 8));

  SocketPair S;
  dist::FrameWriter W;
  W.payload().u64(0);
  ASSERT_TRUE(W.sendWithFds(S.Fd[0], dist::MsgType::Shutdown, {Fd}));
  ::close(Fd);

  dist::FrameReader Reader;
  ASSERT_EQ(Reader.fill(S.Fd[1]), dist::RecvStatus::Ok);
  dist::Frame F;
  ASSERT_EQ(Reader.next(&F), dist::RecvStatus::Ok);
  // The received duplicate was closed inside fill(); the next fd the
  // process opens reuses the lowest free slot, which would have been
  // occupied had the duplicate leaked. (Exact-fd assertions are too
  // brittle; just prove the system still hands out descriptors and no
  // EMFILE creep started.)
  int Probe = ::dup(S.Fd[1]);
  EXPECT_GE(Probe, 0);
  ::close(Probe);
}

//===----------------------------------------------------------------------===//
// Shm transport end-to-end: every input kind, staleness, deadlines
//===----------------------------------------------------------------------===//

TEST(DistCoordinator, ShmTransportIsUsedAndAccountsMappedBytes) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  DistRun R;
  dist::DistConfig Cfg;
  Cfg.Workers = 3;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_TRUE(Rep.UsedShm);
  // Every shard travelled as a descriptor: the socket carried frames,
  // not elements. 6000 elements * 8 B map through the region; the
  // frames themselves stay far under one element-payload's size.
  EXPECT_EQ(Rep.BytesMapped, R.Data.size() * 8);
  EXPECT_GT(Rep.TaskFrames, 0u);
  EXPECT_LT(Rep.BytesShipped, R.Data.size() * 8);
  // The workers were forked by this run, and still each one got the
  // mapping on a Publish frame: there is no other way in.
  EXPECT_EQ(Rep.WorkersSpawned, 3u);
  EXPECT_EQ(Rep.PublishFrames, 3u);

  // A second run republishes to the (now stale) pool.
  dist::DistRunReport Rep2 = Coord.run(R.Segs);
  EXPECT_EQ(Rep2.Output, R.Serial);
  EXPECT_TRUE(Rep2.UsedShm);
  EXPECT_GT(Rep2.PublishFrames, 0u);
}

TEST(DistWorker, StaleGenerationDescriptorExitsLoudly) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // A worker holding generation 3 that receives a generation-4
  // descriptor must refuse to fold (its mapping's bytes are not the
  // coordinator's input) and exit with the dedicated status the
  // coordinator's waitpid decoder recognizes.
  DistRun R("sum", 100, 2);
  dist::ShmRegion Region = sealedRegion(R.Data, 3);
  ASSERT_TRUE(Region.valid());
  ForkedWorker W(R.Plan);

  // The Hello handshake: pid and plan hash, and no mapping.
  dist::Frame F;
  ASSERT_EQ(W.next(&F), dist::RecvStatus::Ok);
  ASSERT_EQ(F.Type, dist::MsgType::Hello);
  dist::HelloMsg H;
  ASSERT_TRUE(dist::decodeHello(F.Payload, &H));
  EXPECT_EQ(H.Pid, static_cast<uint64_t>(W.Pid));
  EXPECT_EQ(H.PlanHash, R.Plan.compiled().bytecodeHash());

  // Generation 3 arrives by Publish frame; generation 4 is not the
  // mapping the worker holds.
  ASSERT_TRUE(W.publish(Region));
  Region.reset();
  ASSERT_TRUE(dist::writeFrame(W.fd(), dist::MsgType::Task,
                               dist::encodeTask(oneItem(4, 0, 10))));
  EXPECT_EQ(W.wait(), dist::StaleMapExitStatus);
}

TEST(DistWorker, DescriptorNamingAnAbsentStripeExitsLoudly) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // The right generation but a stripe past the worker's table: folding
  // would read bytes the descriptor does not name, so the worker dies
  // with the stale-mapping status instead. Stripe 0 of the same
  // generation folds normally first, so the refusal is about the
  // stripe and nothing else.
  DistRun R("sum", 100, 2);
  dist::ShmRegion Region = sealedRegion(R.Data, 3);
  ASSERT_TRUE(Region.valid());
  ForkedWorker W(R.Plan);
  dist::Frame F;
  ASSERT_EQ(W.next(&F), dist::RecvStatus::Ok);
  ASSERT_EQ(F.Type, dist::MsgType::Hello);
  ASSERT_TRUE(W.publish(Region));
  Region.reset();

  ASSERT_TRUE(dist::writeFrame(W.fd(), dist::MsgType::Task,
                               dist::encodeTask(oneItem(3, 0, 100))));
  ASSERT_EQ(W.next(&F), dist::RecvStatus::Ok);
  ASSERT_EQ(F.Type, dist::MsgType::Result);
  dist::ResultMsg Res;
  ASSERT_TRUE(dist::decodeResult(F.Payload, &Res));
  EXPECT_EQ(R.Plan.merge({Res.Out}), R.Serial);

  ASSERT_TRUE(dist::writeFrame(W.fd(), dist::MsgType::Task,
                               dist::encodeTask(oneItem(3, 1, 10))));
  dist::RecvStatus St = W.next(&F); // no Result for stripe 1.
  EXPECT_TRUE(St == dist::RecvStatus::Eof || St == dist::RecvStatus::Error);
  EXPECT_EQ(W.wait(), dist::StaleMapExitStatus);
}

TEST(DistWorker, PublishWhoseFdCountDiffersIsNeverFoldedFrom) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // A Publish announcing two stripes must arrive with exactly two fds.
  // With one or three, the table and its fds disagree about which file
  // holds which stripe; the worker must die before any descriptor is
  // folded from it. Two fds is the control: the same Task then folds.
  DistRun R("sum", 100, 2);
  dist::ShmRegion Region = sealedRegion(R.Data, 7);
  ASSERT_TRUE(Region.valid());
  dist::PublishMsg Pub;
  Pub.Generation = 7;
  Pub.Stripes = {{0, 100}, {0, 100}};
  for (size_t Attached : {size_t{1}, size_t{3}, size_t{2}}) {
    ForkedWorker W(R.Plan);
    dist::Frame F;
    ASSERT_EQ(W.next(&F), dist::RecvStatus::Ok);
    ASSERT_EQ(F.Type, dist::MsgType::Hello);
    dist::FrameWriter Out;
    dist::encodePublish(Pub, Out.payload());
    std::vector<int> Fds(Attached, Region.Stripes[0].Fd);
    ASSERT_TRUE(Out.sendWithFds(W.fd(), dist::MsgType::Publish, Fds));
    // A worker that refused the Publish may be gone before this write.
    bool Sent = dist::writeFrame(W.fd(), dist::MsgType::Task,
                                 dist::encodeTask(oneItem(7, 1, 100)));
    if (Attached == 2) {
      ASSERT_TRUE(Sent);
      ASSERT_EQ(W.next(&F), dist::RecvStatus::Ok);
      EXPECT_EQ(F.Type, dist::MsgType::Result);
      ASSERT_TRUE(dist::writeFrame(W.fd(), dist::MsgType::Shutdown, {}));
      EXPECT_EQ(W.wait(), 0);
      continue;
    }
    // The stream ends (EOF, or a reset over the unread Task) with no
    // Result on it.
    dist::RecvStatus St = W.next(&F);
    EXPECT_TRUE(St == dist::RecvStatus::Eof || St == dist::RecvStatus::Error)
        << Attached << " fds";
    EXPECT_EQ(W.wait(), dist::StaleMapExitStatus) << Attached << " fds";
  }
  Region.reset();
}

TEST(DistCoordinator, TaskDeadlineScalesWithShardElementCount) {
  dist::DistConfig Cfg;
  Cfg.TaskDeadlineSeconds = 0.25;
  Cfg.DeadlineNsPerElem = 100.0;
  // The base floor plus 100 ns per element: a million-element shard
  // earns 100 ms on top of the floor instead of tripping the straggler
  // detector at the same threshold as a thousand-element one.
  EXPECT_EQ(runtime::taskDeadlineNs(Cfg, 0), 250000000);
  EXPECT_EQ(runtime::taskDeadlineNs(Cfg, 1000000), 350000000);
  Cfg.DeadlineNsPerElem = 0.0;
  EXPECT_EQ(runtime::taskDeadlineNs(Cfg, 1000000), 250000000);
}

TEST(DistCoordinator, ScaledDeadlineSuppressesFalseHangKills) {
  // A deliberately slow tier (no specialization, no native JIT) under a
  // tiny base deadline: without per-element scaling the hang sweep
  // would reap honest workers mid-fold; with it the run must finish
  // with zero kills. Speculation stays on — backups are cheap; kills
  // are the false positive this satellite fixes.
  DistRun R("sum", 40000, 4);
  runtime::CompiledPlan Slow(*R.P, synthFor("sum").Plan,
                             /*AllowSpecialize=*/false,
                             /*AllowNative=*/false);
  dist::DistConfig Cfg;
  Cfg.Workers = 2;
  Cfg.TaskDeadlineSeconds = 0.002; // 2ms floor: absurd on its own.
  Cfg.DeadlineNsPerElem = 2000.0;  // ...but 2us/elem covers the slow tier.
  Cfg.Speculate = false;
  Cfg.MaxRetries = 0;
  dist::DistCoordinator Coord(Slow, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.HangsDetected, 0u);
  EXPECT_EQ(Rep.WorkersKilled, 0u);
  EXPECT_EQ(Rep.SerialRefolds, 0u);
}

TEST(DistCoordinator, FileBackedSourceMapsTheWorkloadFileDirectly) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // A binary workload file run through run(Src): workers mmap the
  // GRSPWB01 region by byte offset — zero element bytes cross the
  // socket and none are staged through an extra memfd copy.
  DistRun R("sum", 5000, 4);
  std::string Path = "dist_smoke_filemap.grsp.bin";
  {
    runtime::BinaryWorkloadWriter W(Path);
    W.append(R.Data);
    W.close();
  }
  runtime::SourceOptions Opts;
  Opts.ChunkElems = 1000;
  runtime::MmapFileSource Src(Path, Opts);

  dist::DistConfig Cfg;
  Cfg.Workers = 3;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(Src);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_TRUE(Rep.UsedShm);
  EXPECT_EQ(Rep.Stripes, 1u); // the file's own fd, never copied.
  EXPECT_EQ(Rep.BytesMapped, R.Data.size() * 8);
  EXPECT_LT(Rep.BytesShipped, R.Data.size() * 8);
  ::remove(Path.c_str());
}

TEST(DistCoordinator, CopiedSourcesAreFoldedFromTheSealedMapping) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // Sources without a contiguous file region — an in-memory
  // VectorSource and a text workload file — are written once into the
  // sealed memfd, so every shard is still a descriptor and the socket
  // bytes stay flat while the input grows 100x. is_sorted runs the
  // constant-prefix merge over the repair heads its workers send back.
  for (const char *Name : {"sum", "is_sorted"}) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    runtime::CompiledPlan Plan(*P, synthFor(Name).Plan);
    dist::DistConfig Cfg;
    Cfg.Workers = 3;
    dist::DistCoordinator Coord(Plan, Cfg);
    for (size_t N : {size_t{4000}, size_t{400000}}) {
      std::vector<int64_t> Data = runtime::generateWorkload(*P, N, 5);
      int64_t Want = lang::runSerial(*P, Data);
      runtime::SourceOptions Opts;
      Opts.ChunkElems = N / 8; // 8 shards at every size.
      runtime::VectorSource Vec(Data, Opts);
      std::string Path = ::testing::TempDir() + "dist_smoke_text.txt";
      {
        std::ofstream Out(Path);
        Out << runtime::workloadFileHeader(N) << '\n';
        for (int64_t V : Data)
          Out << V << '\n';
      }
      runtime::ChunkedFileSource Text(Path, Opts);
      int TextFd = -1;
      uint64_t TextOff = 0;
      ASSERT_FALSE(Text.contiguousByteRegion(&TextFd, &TextOff));
      for (const runtime::SegmentSource *Src :
           {static_cast<const runtime::SegmentSource *>(&Vec),
            static_cast<const runtime::SegmentSource *>(&Text)}) {
        dist::DistRunReport Rep = Coord.run(*Src);
        std::string Where = std::string(Name) + "/" + Src->kind() + "/" +
                            std::to_string(N);
        EXPECT_EQ(Rep.Output, Want) << Where;
        EXPECT_TRUE(Rep.UsedShm) << Where;
        EXPECT_EQ(Rep.Shards, 8u) << Where;
        EXPECT_EQ(Rep.SerialRefolds, 0u) << Where;
        EXPECT_EQ(Rep.BytesMapped, N * 8) << Where;
        // At N=400000 the chunks are striped: every helper thread reads
        // through a cursor of its own.
        EXPECT_EQ(Rep.Stripes,
                  dist::DistCoordinator::stripeCount(3, 8, N * 8))
            << Where;
        // Frames only: well under one byte per element even at N=4000.
        EXPECT_LT(Rep.BytesShipped, 4000u) << Where;
      }
      ::remove(Path.c_str());
    }
  }
}

TEST(DistCoordinator, FailedPublicationRefoldsEveryShardSerially) {
  // With no free descriptor, publishing fails: memfd_create (and the
  // dup of a file region) needs one. There is no second transport, so
  // every shard refolds in the coordinator — exactly — while the
  // prewarmed workers stay idle, and the report says no mapping was
  // used.
  DistRun R;
  dist::DistConfig Cfg;
  Cfg.Workers = 2;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  Coord.prewarm();
  ASSERT_EQ(Coord.liveWorkers(), 2u);

  struct rlimit Old;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &Old), 0);
  struct rlimit Starved = Old;
  Starved.rlim_cur = 0;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Starved), 0);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Old), 0);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_FALSE(Rep.UsedShm);
  EXPECT_EQ(Rep.Stripes, 0u);
  EXPECT_EQ(Rep.ShardsCompleted, 8u);
  EXPECT_EQ(Rep.SerialRefolds, 8u);
  EXPECT_EQ(Rep.TaskFrames, 0u);
  EXPECT_EQ(Rep.BytesShipped, 0u);
  EXPECT_EQ(Rep.BytesMapped, 0u);
  EXPECT_EQ(Coord.liveWorkers(), 2u);

  // The next run publishes again and deals descriptors to the same pool.
  if (!dist::shmTransportAvailable())
    return;
  dist::DistRunReport Rep2 = Coord.run(R.Segs);
  EXPECT_EQ(Rep2.Output, R.Serial);
  EXPECT_TRUE(Rep2.UsedShm);
  EXPECT_EQ(Rep2.SerialRefolds, 0u);
}

TEST(DistCoordinator, BatchedFramesCoverAllShardsWithFewerTasks) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // 16 shards over 2 workers with BatchShards=4: the initial deal packs
  // descriptors 4-per-frame, so the whole run needs far fewer Task
  // frames than shards — while every shard still completes and merges
  // in certified order.
  DistRun R("second_max", 8000, 16);
  dist::DistConfig Cfg;
  Cfg.Workers = 2;
  Cfg.BatchShards = 4;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.ShardsCompleted, 16u);
  EXPECT_LE(Rep.TaskFrames, 8u);
}

//===----------------------------------------------------------------------===//
// Striped publication
//===----------------------------------------------------------------------===//

TEST(DistCoordinator, StripeCountFollowsWorkersShardsAndBytes) {
  const uint64_t MiB = uint64_t{1} << 20;
  using dist::DistCoordinator;
  EXPECT_EQ(DistCoordinator::stripeCount(4, 16, 128 * MiB), 4u);
  EXPECT_EQ(DistCoordinator::stripeCount(4, 2, 128 * MiB), 2u);
  EXPECT_EQ(DistCoordinator::stripeCount(16, 64, 128 * MiB),
            dist::MaxFrameFds);
  EXPECT_EQ(DistCoordinator::stripeCount(4, 16, 3 * MiB), 3u);
  EXPECT_EQ(DistCoordinator::stripeCount(4, 16, MiB - 8), 1u);
  EXPECT_EQ(DistCoordinator::stripeCount(0, 16, 128 * MiB), 1u);
  EXPECT_EQ(DistCoordinator::stripeCount(4, 0, 0), 1u);
}

/// Views over \p Data with the given element counts, end to end.
std::vector<runtime::SegmentView> carve(const std::vector<int64_t> &Data,
                                        const std::vector<size_t> &Sizes) {
  std::vector<runtime::SegmentView> Segs;
  size_t At = 0;
  for (size_t N : Sizes) {
    Segs.push_back({Data.data() + At, N});
    At += N;
  }
  EXPECT_EQ(At, Data.size());
  return Segs;
}

TEST(DistCoordinator, StripedRunsMatchSerialAcrossShardShapes) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // 4.8 MB over 4 workers: large enough for helper threads. Fewer
  // shards than workers, as many, more, uneven shards with empty ones
  // between them, and empty shards at both ends — every shape must fold
  // to the serial answer, with the stripe count stripeCount() promises.
  // One coordinator per program serves every shape, so the same
  // workers adopt stripe tables of different sizes in turn and retire
  // the old ones.
  const size_t N = 600000;
  const std::vector<std::vector<size_t>> Shapes = {
      {300000, 300000},
      {150000, 150000, 150000, 150000},
      {54546, 54546, 54546, 54546, 54546, 54545, 54545, 54545, 54545,
       54545, 54545},
      {0, 350000, 0, 0, 20000, 1, 229999, 0},
      {0, 0, 300000, 300000, 0},
  };
  for (const char *Name : {"sum", "is_sorted"}) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    std::vector<int64_t> Data = runtime::generateWorkload(*P, N, 17);
    const int64_t Want = lang::runSerial(*P, Data);
    runtime::CompiledPlan Plan(*P, synthFor(Name).Plan);
    dist::DistConfig Cfg;
    Cfg.Workers = 4;
    dist::DistCoordinator Coord(Plan, Cfg);
    for (const std::vector<size_t> &Shape : Shapes) {
      std::vector<runtime::SegmentView> Segs = carve(Data, Shape);
      dist::DistRunReport Rep = Coord.run(Segs);
      std::string Where =
          std::string(Name) + "/" + std::to_string(Shape.size()) + " shards";
      EXPECT_EQ(Rep.Output, Want) << Where;
      EXPECT_TRUE(Rep.UsedShm) << Where;
      EXPECT_EQ(Rep.SerialRefolds, 0u) << Where;
      EXPECT_EQ(Rep.Stripes, dist::DistCoordinator::stripeCount(
                                 4, Shape.size(), N * 8))
          << Where;
      EXPECT_GT(Rep.Stripes, 1u) << Where;
      EXPECT_GT(Rep.PublishSeconds, 0.0) << Where;
      EXPECT_EQ(Rep.BytesMapped, N * 8) << Where;
    }
  }
  // A small input stays one stripe, written on the coordinator thread.
  DistRun R;
  dist::DistCoordinator Coord(R.Plan, dist::DistConfig());
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.Stripes, 1u);
}

TEST(DistCoordinator, DescriptorNamingAnAbsentStripeIsRequeuedAndMatches) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // Shard 3's first descriptor names a stripe past the published table.
  // The worker exits with the stale-mapping status, the coordinator
  // decodes that as an exit, requeues the shard, and its retry (a fresh
  // attempt key) folds from the real stripe.
  for (size_t N : {size_t{6000}, size_t{400000}}) {
    DistRun R("sum", N, 8);
    FaultInjector FI(5);
    FaultSpec Stale;
    Stale.Keys = {dist::distAttemptKey(0, 0, 3)};
    FI.arm(dist::SiteStaleStripe, Stale);
    dist::DistConfig Cfg;
    Cfg.Workers = 3;
    Cfg.Faults = &FI;
    dist::DistCoordinator Coord(R.Plan, Cfg);
    dist::DistRunReport Rep = Coord.run(R.Segs);
    EXPECT_EQ(Rep.Output, R.Serial) << N;
    EXPECT_EQ(Rep.WorkersExited, 1u) << N;
    EXPECT_EQ(Rep.WorkersKilled, 0u) << N;
    EXPECT_GE(Rep.ShardsReassigned, 1u) << N;
    EXPECT_GE(Rep.Retries, 1u) << N;
    EXPECT_EQ(Rep.SerialRefolds, 0u) << N;
  }
}

/// Appends the /proc paths of the stripe memfds process \p Pid holds to
/// \p Paths; false when its fd table cannot be listed.
bool stripeFdsOf(pid_t Pid, std::vector<std::string> *Paths) {
  std::string Dir = "/proc/" + std::to_string(Pid) + "/fd";
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return false;
  while (struct dirent *E = ::readdir(D)) {
    std::string Path = Dir + "/" + E->d_name;
    char Link[256] = {0};
    if (::readlink(Path.c_str(), Link, sizeof(Link) - 1) >= 0 &&
        std::string(Link).find("memfd:grassp-dist-shm") != std::string::npos)
      Paths->push_back(Path);
  }
  ::closedir(D);
  return true;
}

TEST(DistCoordinator, EveryStripeAWorkerReceivesIsSealed) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // Prewarmed workers predate the publication, so they receive the
  // stripe fds on a Publish frame. Look at what each worker process
  // actually holds: one memfd per stripe, each carrying all three seals.
  DistRun R("sum", 400000, 8);
  dist::DistConfig Cfg;
  Cfg.Workers = 2;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  Coord.prewarm();
  dist::DistRunReport Rep = Coord.run(R.Segs);
  ASSERT_EQ(Rep.Output, R.Serial);
  ASSERT_EQ(Rep.Stripes, 2u);
  ASSERT_EQ(Rep.PublishFrames, 2u);
  const int AllSeals = F_SEAL_WRITE | F_SEAL_SHRINK | F_SEAL_GROW;
  for (unsigned Slot = 0; Slot != 2; ++Slot) {
    std::vector<std::string> Paths;
    if (!stripeFdsOf(Coord.workerPid(Slot), &Paths))
      GTEST_SKIP() << "cannot list the fds of worker " << Slot;
    for (const std::string &Path : Paths) {
      int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
      if (Fd < 0)
        GTEST_SKIP() << "cannot open " << Path;
      EXPECT_EQ(::fcntl(Fd, F_GET_SEALS) & AllSeals, AllSeals) << Path;
      ::close(Fd);
    }
    EXPECT_EQ(Paths.size(), Rep.Stripes) << "worker in slot " << Slot;
  }
}

/// Waits up to 5 s for process \p Pid to sleep, as a worker does once
/// it blocks reading its first frame. False when it never did.
bool waitUntilAsleep(pid_t Pid) {
  const std::string StatPath = "/proc/" + std::to_string(Pid) + "/stat";
  for (int Tries = 0; Tries != 5000; ++Tries) {
    std::ifstream Stat(StatPath);
    std::string Line;
    std::getline(Stat, Line);
    // The state letter follows the parenthesized command name.
    size_t Close = Line.rfind(')');
    if (Close != std::string::npos && Close + 2 < Line.size() &&
        Line[Close + 2] == 'S')
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(DistCoordinator, FreshWorkerHoldsNoStripeFdBeforeItsFirstPublish) {
  if (!dist::shmTransportAvailable())
    GTEST_SKIP() << "no sealable memfd on this kernel";
  // A pool forked again after a run is forked while that run's mapping
  // is still published. Its workers must hold none of the stripe fds:
  // a mapping reaches a worker only on a Publish frame, and these have
  // been sent none yet.
  DistRun R;
  dist::DistConfig Cfg;
  Cfg.Workers = 2;
  dist::DistCoordinator Coord(R.Plan, Cfg);
  ASSERT_EQ(Coord.run(R.Segs).Output, R.Serial);
  Coord.shutdown();
  Coord.prewarm();
  ASSERT_EQ(Coord.liveWorkers(), 2u);
  for (unsigned Slot = 0; Slot != 2; ++Slot) {
    pid_t Pid = Coord.workerPid(Slot);
    ASSERT_TRUE(waitUntilAsleep(Pid)) << "worker in slot " << Slot;
    std::vector<std::string> Paths;
    if (!stripeFdsOf(Pid, &Paths))
      GTEST_SKIP() << "cannot list the fds of worker " << Slot;
    EXPECT_TRUE(Paths.empty())
        << "worker in slot " << Slot << " holds " << Paths.size()
        << " stripe fd(s)";
  }
  // The next run sends each of them the new mapping.
  dist::DistRunReport Rep = Coord.run(R.Segs);
  EXPECT_EQ(Rep.Output, R.Serial);
  EXPECT_EQ(Rep.WorkersSpawned, 0u);
  EXPECT_EQ(Rep.PublishFrames, 2u);
}

} // namespace
