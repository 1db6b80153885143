//===- dist/Protocol.cpp --------------------------------------------------==//

#include "dist/Protocol.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace grassp {
namespace dist {

namespace {

constexpr bool LittleEndianHost = std::endian::native == std::endian::little;

/// Most bytes FrameReader reserves up front for a payload it receives in
/// place; a longer payload grows past it by doubling.
constexpr uint64_t MaxInPlaceReserve = uint64_t{1} << 26;

/// The Castagnoli polynomial, bit-reflected.
constexpr uint32_t CrcPoly = 0x82f63b78u;

/// Slice-by-8 tables for the reflected Castagnoli polynomial: row 0 is
/// the byte-at-a-time table, row K advances a byte through K more zero
/// bytes.
constexpr std::array<std::array<uint32_t, 256>, 8> makeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> T{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t C = I;
    for (int B = 0; B != 8; ++B)
      C = (C >> 1) ^ (CrcPoly & (0u - (C & 1)));
    T[0][I] = C;
  }
  for (size_t K = 1; K != 8; ++K)
    for (uint32_t I = 0; I != 256; ++I)
      T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xff];
  return T;
}
constexpr std::array<std::array<uint32_t, 256>, 8> CrcTables = makeCrcTables();

/// A linear map on raw (uninverted) CRC registers, as a 32x32 matrix over
/// GF(2): entry J is the image of bit J.
using Gf2Op = std::array<uint32_t, 32>;

constexpr uint32_t gf2Apply(const Gf2Op &M, uint32_t V) {
  uint32_t R = 0;
  for (int J = 0; V != 0; ++J, V >>= 1)
    if (V & 1)
      R ^= M[J];
  return R;
}

/// A after B.
constexpr Gf2Op gf2Compose(const Gf2Op &A, const Gf2Op &B) {
  Gf2Op R{};
  for (int J = 0; J != 32; ++J)
    R[J] = gf2Apply(A, B[J]);
  return R;
}

/// Byte-indexed tables of the map that feeds \p Bytes zero bytes through
/// a raw CRC register: crc(A ‖ B) = shift(crc(A)) ^ crc(B) for
/// |B| = Bytes, on raw registers. The hardware path uses them to join
/// three independent crc32 streams.
constexpr std::array<std::array<uint32_t, 256>, 4> makeShiftTables(size_t Bytes) {
  Gf2Op Bit{}; // one zero bit: shift right, fold the low bit back in.
  Bit[0] = CrcPoly;
  for (int J = 1; J != 32; ++J)
    Bit[J] = 1u << (J - 1);
  Gf2Op Pow = Bit;
  for (int I = 0; I != 3; ++I)
    Pow = gf2Compose(Pow, Pow); // one zero byte.
  Gf2Op Op{};
  for (int J = 0; J != 32; ++J)
    Op[J] = 1u << J;
  for (size_t N = Bytes; N != 0; N >>= 1) {
    if (N & 1)
      Op = gf2Compose(Pow, Op);
    Pow = gf2Compose(Pow, Pow);
  }
  std::array<std::array<uint32_t, 256>, 4> T{};
  for (uint32_t K = 0; K != 4; ++K)
    for (uint32_t I = 0; I != 256; ++I)
      T[K][I] = gf2Apply(Op, I << (8 * K));
  return T;
}

/// Stream lengths of the three-way hardware CRC: crc32 has a latency of
/// three cycles and a throughput of one per cycle, so three independent
/// streams keep the unit busy.
constexpr size_t CrcLongBlock = 8192, CrcShortBlock = 256;
constexpr std::array<std::array<uint32_t, 256>, 4> CrcLongShift =
    makeShiftTables(CrcLongBlock);
constexpr std::array<std::array<uint32_t, 256>, 4> CrcShortShift =
    makeShiftTables(CrcShortBlock);

uint32_t crcShift(const std::array<std::array<uint32_t, 256>, 4> &T,
                  uint32_t C) {
  return T[0][C & 0xff] ^ T[1][(C >> 8) & 0xff] ^ T[2][(C >> 16) & 0xff] ^
         T[3][C >> 24];
}

void putLe32(std::vector<uint8_t> &B, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putLe64(std::vector<uint8_t> &B, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    B.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

uint32_t getLe32(const uint8_t *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

uint64_t getLe64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

/// The frame checksum: CRC32C over type ‖ len ‖ payload, so a corrupted
/// header word is as detectable as a corrupted payload byte.
uint32_t frameCrc(uint32_t Type, uint64_t Len, const uint8_t *Payload,
                  Crc32cFn Crc) {
  uint8_t Head[12];
  for (int I = 0; I != 4; ++I)
    Head[I] = static_cast<uint8_t>(Type >> (8 * I));
  for (int I = 0; I != 8; ++I)
    Head[4 + I] = static_cast<uint8_t>(Len >> (8 * I));
  return Crc(Crc(0, Head, sizeof(Head)), Payload, static_cast<size_t>(Len));
}

void putHeader(std::vector<uint8_t> &Head, MsgType Type,
               const std::vector<uint8_t> &P) {
  Head.clear();
  putLe32(Head, FrameMagic);
  putLe32(Head, static_cast<uint32_t>(Type));
  putLe64(Head, P.size());
  putLe64(Head, frameCrc(static_cast<uint32_t>(Type), P.size(), P.data(),
                         crc32c));
}

/// The header words a receiver trusts before the payload arrives.
struct FrameHead {
  uint32_t Type = 0;
  uint64_t Len = 0;
  uint32_t Crc = 0;
};

/// Magic, a known type, a length under the cap and a zero high checksum
/// half; false means the frame is corrupt.
bool parseHead(const uint8_t *H, FrameHead *Out) {
  uint64_t Sum = getLe64(H + 16);
  Out->Type = getLe32(H + 4);
  Out->Len = getLe64(H + 8);
  Out->Crc = static_cast<uint32_t>(Sum);
  return getLe32(H) == FrameMagic && validMsgType(Out->Type) &&
         Out->Len <= MaxFramePayloadBytes && (Sum >> 32) == 0;
}

bool sendAll(int Fd, const uint8_t *Data, size_t N) {
  while (N != 0) {
    ssize_t W = ::send(Fd, Data, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

} // namespace

uint32_t crc32cPortable(uint32_t Crc, const uint8_t *Data, size_t N) {
  const auto &T = CrcTables;
  uint32_t C = ~Crc;
  for (; N >= 8; Data += 8, N -= 8) {
    uint32_t Lo = getLe32(Data) ^ C, Hi = getLe32(Data + 4);
    C = T[7][Lo & 0xff] ^ T[6][(Lo >> 8) & 0xff] ^ T[5][(Lo >> 16) & 0xff] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xff] ^ T[2][(Hi >> 8) & 0xff] ^
        T[1][(Hi >> 16) & 0xff] ^ T[0][Hi >> 24];
  }
  for (; N != 0; ++Data, --N)
    C = (C >> 8) ^ T[0][(C ^ *Data) & 0xff];
  return ~C;
}

#if defined(__x86_64__)
namespace {

__attribute__((target("sse4.2"))) inline uint64_t crcWord(uint64_t C,
                                                          const uint8_t *P) {
  uint64_t W;
  std::memcpy(&W, P, 8);
  return _mm_crc32_u64(C, W);
}

/// Three crc32 streams over consecutive Block-byte thirds of each
/// 3*Block chunk, joined by shifting the running CRC past the next third.
__attribute__((target("sse4.2"))) uint64_t
crcThreeWay(uint64_t C, const uint8_t *&Data, size_t &N, size_t Block,
            const std::array<std::array<uint32_t, 256>, 4> &Shift) {
  for (; N >= 3 * Block; Data += 3 * Block, N -= 3 * Block) {
    uint64_t C1 = 0, C2 = 0;
    for (size_t I = 0; I != Block; I += 8) {
      C = crcWord(C, Data + I);
      C1 = crcWord(C1, Data + Block + I);
      C2 = crcWord(C2, Data + 2 * Block + I);
    }
    C = crcShift(Shift, static_cast<uint32_t>(C)) ^ C1;
    C = crcShift(Shift, static_cast<uint32_t>(C)) ^ C2;
  }
  return C;
}

} // namespace

__attribute__((target("sse4.2"))) uint32_t
crc32cHardware(uint32_t Crc, const uint8_t *Data, size_t N) {
  uint64_t C = ~Crc;
  C = crcThreeWay(C, Data, N, CrcLongBlock, CrcLongShift);
  C = crcThreeWay(C, Data, N, CrcShortBlock, CrcShortShift);
  for (; N >= 8; Data += 8, N -= 8)
    C = crcWord(C, Data);
  uint32_t C32 = static_cast<uint32_t>(C);
  for (; N != 0; ++Data, --N)
    C32 = _mm_crc32_u8(C32, *Data);
  return ~C32;
}

bool crc32cHardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#else
uint32_t crc32cHardware(uint32_t Crc, const uint8_t *Data, size_t N) {
  return crc32cPortable(Crc, Data, N);
}

bool crc32cHardwareAvailable() { return false; }
#endif

uint32_t crc32c(uint32_t Crc, const uint8_t *Data, size_t N) {
  static const bool Hardware = crc32cHardwareAvailable();
  return Hardware ? crc32cHardware(Crc, Data, N)
                  : crc32cPortable(Crc, Data, N);
}

void WireWriter::u32(uint32_t V) {
  if constexpr (LittleEndianHost)
    raw(&V, sizeof(V));
  else
    putLe32(Buf, V);
}

void WireWriter::u64(uint64_t V) {
  if constexpr (LittleEndianHost)
    raw(&V, sizeof(V));
  else
    putLe64(Buf, V);
}

void WireWriter::raw(const void *Src, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Src);
  Buf.insert(Buf.end(), P, P + N);
}

void WireWriter::vecI64(const std::vector<int64_t> &V) {
  u64(V.size());
  if constexpr (LittleEndianHost) {
    raw(V.data(), V.size() * sizeof(int64_t));
  } else {
    for (int64_t X : V)
      i64(X);
  }
}

void WireWriter::vecU32(const std::vector<uint32_t> &V) {
  u64(V.size());
  if constexpr (LittleEndianHost) {
    raw(V.data(), V.size() * sizeof(uint32_t));
  } else {
    for (uint32_t X : V)
      u32(X);
  }
}

void WireWriter::str(const std::string &S) {
  u64(S.size());
  raw(S.data(), S.size());
}

bool WireReader::u8(uint8_t *V) {
  if (End - Data < 1)
    return false;
  *V = *Data++;
  return true;
}

bool WireReader::u32(uint32_t *V) {
  if (End - Data < 4)
    return false;
  if constexpr (LittleEndianHost)
    std::memcpy(V, Data, 4);
  else
    *V = getLe32(Data);
  Data += 4;
  return true;
}

bool WireReader::u64(uint64_t *V) {
  if (End - Data < 8)
    return false;
  if constexpr (LittleEndianHost)
    std::memcpy(V, Data, 8);
  else
    *V = getLe64(Data);
  Data += 8;
  return true;
}

bool WireReader::i64(int64_t *V) {
  uint64_t U;
  if (!u64(&U))
    return false;
  *V = static_cast<int64_t>(U);
  return true;
}

bool WireReader::vecI64(std::vector<int64_t> *V) {
  uint64_t N;
  if (!u64(&N) || N > static_cast<uint64_t>(End - Data) / 8)
    return false;
  V->resize(static_cast<size_t>(N));
  if constexpr (LittleEndianHost) {
    if (N != 0)
      std::memcpy(V->data(), Data, N * 8);
    Data += N * 8;
    return true;
  }
  for (int64_t &X : *V)
    if (!i64(&X))
      return false;
  return true;
}

bool WireReader::vecU32(std::vector<uint32_t> *V) {
  uint64_t N;
  if (!u64(&N) || N > static_cast<uint64_t>(End - Data) / 4)
    return false;
  V->resize(static_cast<size_t>(N));
  if constexpr (LittleEndianHost) {
    if (N != 0)
      std::memcpy(V->data(), Data, N * 4);
    Data += N * 4;
    return true;
  }
  for (uint32_t &X : *V)
    if (!u32(&X))
      return false;
  return true;
}

bool WireReader::str(std::string *S) {
  uint64_t N;
  if (!u64(&N) || N > static_cast<uint64_t>(End - Data))
    return false;
  S->assign(reinterpret_cast<const char *>(Data), static_cast<size_t>(N));
  Data += N;
  return true;
}

bool FrameWriter::sendPrepared(int Fd, MsgType Type, int64_t CorruptByteAt,
                               const std::vector<int> *AttachFds) {
  size_t NFds = AttachFds ? AttachFds->size() : 0;
  if (NFds > MaxFrameFds)
    return false; // the receiver has no room for them.
  std::vector<uint8_t> &P = Payload.buffer();
  putHeader(Head, Type, P);
  LastBytes = Head.size() + P.size();
  // The injected fault: the checksum above described the true payload;
  // the bytes on the wire differ in exactly one position. Flipped in
  // place and restored after the send — no copy.
  size_t FlipAt = 0;
  bool Flip = CorruptByteAt >= 0 && !P.empty();
  if (Flip) {
    FlipAt = static_cast<size_t>(CorruptByteAt) % P.size();
    P[FlipAt] ^= 0x5a;
  }
  bool Ok;
  if (NFds != 0) {
    // The fds are attached to the frame's first byte: receivers see
    // them no later than they see the frame, and SOCK_STREAM ordering
    // does the rest.
    struct iovec Iov[2];
    Iov[0].iov_base = Head.data();
    Iov[0].iov_len = Head.size();
    Iov[1].iov_base = P.data();
    Iov[1].iov_len = P.size();
    alignas(struct cmsghdr) char Ctrl[CMSG_SPACE(MaxFrameFds * sizeof(int))];
    std::memset(Ctrl, 0, sizeof(Ctrl));
    struct msghdr Msg;
    std::memset(&Msg, 0, sizeof(Msg));
    Msg.msg_iov = Iov;
    Msg.msg_iovlen = P.empty() ? 1 : 2;
    Msg.msg_control = Ctrl;
    Msg.msg_controllen = CMSG_SPACE(NFds * sizeof(int));
    struct cmsghdr *Cm = CMSG_FIRSTHDR(&Msg);
    Cm->cmsg_level = SOL_SOCKET;
    Cm->cmsg_type = SCM_RIGHTS;
    Cm->cmsg_len = CMSG_LEN(NFds * sizeof(int));
    std::memcpy(CMSG_DATA(Cm), AttachFds->data(), NFds * sizeof(int));
    ssize_t W;
    do {
      W = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    } while (W < 0 && errno == EINTR);
    if (W < 0) {
      Ok = false;
    } else {
      // The fds went with the first byte; push any remainder plainly.
      size_t Sent = static_cast<size_t>(W);
      Ok = true;
      if (Sent < Head.size()) {
        Ok = sendAll(Fd, Head.data() + Sent, Head.size() - Sent) &&
             sendAll(Fd, P.data(), P.size());
      } else if (Sent - Head.size() < P.size()) {
        size_t Done = Sent - Head.size();
        Ok = sendAll(Fd, P.data() + Done, P.size() - Done);
      }
    }
  } else {
    Ok = sendAll(Fd, Head.data(), Head.size()) &&
         sendAll(Fd, P.data(), P.size());
  }
  if (Flip)
    P[FlipAt] ^= 0x5a;
  return Ok;
}

bool FrameWriter::send(int Fd, MsgType Type, int64_t CorruptByteAt) {
  return sendPrepared(Fd, Type, CorruptByteAt, nullptr);
}

void FrameWriter::frameInto(MsgType Type, std::vector<uint8_t> *Out) {
  std::vector<uint8_t> &P = Payload.buffer();
  putHeader(Head, Type, P);
  LastBytes = Head.size() + P.size();
  Out->insert(Out->end(), Head.begin(), Head.end());
  Out->insert(Out->end(), P.begin(), P.end());
}

bool FrameWriter::sendWithFds(int Fd, MsgType Type,
                              const std::vector<int> &AttachFds) {
  return sendPrepared(Fd, Type, -1, &AttachFds);
}

bool writeFrame(int Fd, MsgType Type, const std::vector<uint8_t> &Payload,
                int64_t CorruptByteAt) {
  FrameWriter W;
  W.payload().buffer() = Payload;
  return W.send(Fd, Type, CorruptByteAt);
}

RecvStatus decodeFrame(const uint8_t *Bytes, size_t N, Frame *Out,
                       Crc32cFn Crc) {
  FrameHead H;
  if (N < FrameHeaderBytes || !parseHead(Bytes, &H) ||
      H.Len != N - FrameHeaderBytes ||
      frameCrc(H.Type, H.Len, Bytes + FrameHeaderBytes, Crc) != H.Crc)
    return RecvStatus::Corrupt;
  Out->Type = static_cast<MsgType>(H.Type);
  Out->Payload.assign(Bytes + FrameHeaderBytes, Bytes + N);
  return RecvStatus::Ok;
}

RecvStatus FrameReader::fill(int Fd, std::vector<int> *Fds) {
  if (Broken)
    return RecvStatus::Corrupt;
  uint8_t Tmp[1 << 16];
  struct iovec Iov;
  if (InPlace) {
    // Grow the payload by doubling as bytes arrive, so a header that
    // lies about its length costs no more memory than the bytes sent.
    std::vector<uint8_t> &P = Big.Payload;
    size_t Want = static_cast<size_t>(
        std::min<uint64_t>(BigLen, BigGot + std::max<size_t>(BigGot, 1 << 16)));
    if (P.size() < Want)
      P.resize(Want);
    Iov.iov_base = P.data() + BigGot;
    Iov.iov_len = P.size() - BigGot;
  } else {
    Iov.iov_base = Tmp;
    Iov.iov_len = sizeof(Tmp);
  }
  // Room for one frame's SCM_RIGHTS fds: a Publish attaches at most
  // MaxFrameFds, and one read never returns the fds of two sends.
  alignas(struct cmsghdr) char Ctrl[CMSG_SPACE(MaxFrameFds * sizeof(int))];
  struct msghdr Msg;
  std::memset(&Msg, 0, sizeof(Msg));
  Msg.msg_iov = &Iov;
  Msg.msg_iovlen = 1;
  Msg.msg_control = Ctrl;
  Msg.msg_controllen = sizeof(Ctrl);
  ssize_t R = ::recvmsg(Fd, &Msg, MSG_CMSG_CLOEXEC);
  if (R >= 0) {
    for (struct cmsghdr *Cm = CMSG_FIRSTHDR(&Msg); Cm;
         Cm = CMSG_NXTHDR(&Msg, Cm)) {
      if (Cm->cmsg_level != SOL_SOCKET || Cm->cmsg_type != SCM_RIGHTS)
        continue;
      size_t NFds = (Cm->cmsg_len - CMSG_LEN(0)) / sizeof(int);
      for (size_t I = 0; I != NFds; ++I) {
        int NewFd;
        std::memcpy(&NewFd, CMSG_DATA(Cm) + I * sizeof(int), sizeof(int));
        if (Fds)
          Fds->push_back(NewFd);
        else
          ::close(NewFd);
      }
    }
  }
  if (R == 0)
    return RecvStatus::Eof;
  if (R < 0)
    return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK
               ? RecvStatus::NeedMore
               : RecvStatus::Error;
  if (InPlace) {
    BigGot += static_cast<size_t>(R);
    return RecvStatus::Ok;
  }
  // Compact lazily so long sessions do not grow the buffer unboundedly.
  if (Off != 0 && (Off > (Buf.size() >> 1) || Buf.size() > (1u << 20))) {
    Buf.erase(Buf.begin(), Buf.begin() + Off);
    Off = 0;
  }
  Buf.insert(Buf.end(), Tmp, Tmp + R);
  return RecvStatus::Ok;
}

RecvStatus FrameReader::next(Frame *Out) {
  if (Broken)
    return RecvStatus::Corrupt;
  if (InPlace) {
    if (BigGot != BigLen)
      return RecvStatus::NeedMore;
    InPlace = false;
    if (frameCrc(static_cast<uint32_t>(Big.Type), BigLen, Big.Payload.data(),
                 crc32c) != BigCrc) {
      Broken = true;
      return RecvStatus::Corrupt;
    }
    Out->Type = Big.Type;
    std::swap(Out->Payload, Big.Payload);
    return RecvStatus::Ok;
  }
  size_t Avail = Buf.size() - Off;
  if (Avail < FrameHeaderBytes)
    return RecvStatus::NeedMore;
  const uint8_t *P = Buf.data() + Off;
  FrameHead H;
  if (!parseHead(P, &H)) {
    Broken = true;
    return RecvStatus::Corrupt;
  }
  if (Avail >= FrameHeaderBytes + H.Len) {
    size_t N = FrameHeaderBytes + static_cast<size_t>(H.Len);
    Off += N;
    if (decodeFrame(P, N, Out) != RecvStatus::Ok) {
      Broken = true;
      return RecvStatus::Corrupt;
    }
    return RecvStatus::Ok;
  }
  // The payload outruns the buffer: take what is buffered and receive
  // the rest in place, into the storage of the caller's frame. The
  // reservation is capped so a lying length word cannot claim more
  // address space than MaxInPlaceReserve.
  InPlace = true;
  Big.Type = static_cast<MsgType>(H.Type);
  BigLen = H.Len;
  BigCrc = H.Crc;
  BigGot = Avail - FrameHeaderBytes;
  std::swap(Big.Payload, Out->Payload);
  Big.Payload.reserve(static_cast<size_t>(
      std::min<uint64_t>(BigLen, MaxInPlaceReserve)));
  Big.Payload.assign(P + FrameHeaderBytes, P + Avail);
  Buf.clear();
  Off = 0;
  return RecvStatus::NeedMore;
}

RecvStatus FrameReader::read(int Fd, Frame *Out, std::vector<int> *Fds) {
  for (;;) {
    RecvStatus S = next(Out);
    if (S != RecvStatus::NeedMore)
      return S;
    S = fill(Fd, Fds);
    if (S == RecvStatus::Eof || S == RecvStatus::Error ||
        S == RecvStatus::Corrupt)
      return S;
  }
}

RecvStatus readFrameBlocking(int Fd, Frame *Out) {
  FrameReader R;
  return R.read(Fd, Out);
}

void encodeHello(const HelloMsg &M, WireWriter &W) {
  W.u64(M.Pid);
  W.u64(M.PlanHash);
}

std::vector<uint8_t> encodeHello(const HelloMsg &M) {
  WireWriter W;
  encodeHello(M, W);
  return W.take();
}

bool decodeHello(const std::vector<uint8_t> &P, HelloMsg *M) {
  WireReader R(P);
  return R.u64(&M->Pid) && R.u64(&M->PlanHash) && R.atEnd();
}

void encodeTask(const TaskMsg &M, WireWriter &W) {
  W.u64(M.Items.size());
  for (const TaskItem &It : M.Items) {
    W.u64(It.TaskId);
    W.u64(It.ShardIndex);
    W.u64(It.AttemptKey);
    W.u64(It.Generation);
    W.u64(It.Stripe);
    W.u64(It.Offset);
    W.u64(It.Count);
  }
}

std::vector<uint8_t> encodeTask(const TaskMsg &M) {
  WireWriter W;
  encodeTask(M, W);
  return W.take();
}

bool decodeTask(const std::vector<uint8_t> &P, TaskMsg *M) {
  WireReader R(P);
  uint64_t N;
  if (!R.u64(&N) || N == 0 || N > MaxTaskItems)
    return false;
  M->Items.clear();
  M->Items.resize(static_cast<size_t>(N));
  for (TaskItem &It : M->Items) {
    if (!R.u64(&It.TaskId) || !R.u64(&It.ShardIndex) ||
        !R.u64(&It.AttemptKey) || !R.u64(&It.Generation) ||
        !R.u64(&It.Stripe) || !R.u64(&It.Offset) || !R.u64(&It.Count))
      return false;
    // A stripe or count no mapping could satisfy is a corrupt word, not
    // a descriptor; the per-mapping bounds are checked by the worker.
    if (It.Stripe >= MaxFrameFds ||
        It.Count > MaxFramePayloadBytes / sizeof(int64_t))
      return false;
  }
  return R.atEnd();
}

void encodeResult(const ResultMsg &M, WireWriter &W) {
  W.u64(M.TaskId);
  W.u64(M.ShardIndex);
  const runtime::WorkerOutput &O = M.Out;
  W.u64(O.Elems);
  W.vecI64(O.D);
  W.vecI64(O.Head);
  W.vecI64(O.Merged);
  W.u8(O.Found ? 1 : 0);
  W.i64(O.Boundary);
  W.vecU32(O.CtrlCur);
  W.u64(O.ModeArg.size());
  for (const std::vector<std::pair<int64_t, int64_t>> &Row : O.ModeArg) {
    W.u64(Row.size());
    for (const std::pair<int64_t, int64_t> &P2 : Row) {
      W.i64(P2.first);
      W.i64(P2.second);
    }
  }
  W.vecI64(O.PrefixData);
  W.vecI64(O.Distinct);
}

std::vector<uint8_t> encodeResult(const ResultMsg &M) {
  WireWriter W;
  encodeResult(M, W);
  return W.take();
}

bool decodeResult(const std::vector<uint8_t> &P, ResultMsg *M) {
  WireReader R(P);
  runtime::WorkerOutput &O = M->Out;
  uint8_t Found;
  if (!R.u64(&M->TaskId) || !R.u64(&M->ShardIndex) || !R.u64(&O.Elems) ||
      !R.vecI64(&O.D) || !R.vecI64(&O.Head) || !R.vecI64(&O.Merged) ||
      !R.u8(&Found) || !R.i64(&O.Boundary) || !R.vecU32(&O.CtrlCur))
    return false;
  O.Found = Found != 0;
  uint64_t NV;
  if (!R.u64(&NV) || NV > (1u << 20))
    return false;
  O.ModeArg.resize(static_cast<size_t>(NV));
  for (std::vector<std::pair<int64_t, int64_t>> &Row : O.ModeArg) {
    uint64_t NJ;
    if (!R.u64(&NJ) || NJ > (1u << 20))
      return false;
    Row.resize(static_cast<size_t>(NJ));
    for (std::pair<int64_t, int64_t> &P2 : Row)
      if (!R.i64(&P2.first) || !R.i64(&P2.second))
        return false;
  }
  return R.vecI64(&O.PrefixData) && R.vecI64(&O.Distinct) && R.atEnd();
}

void encodePublish(const PublishMsg &M, WireWriter &W) {
  W.u64(M.Generation);
  W.u64(M.Stripes.size());
  for (const PublishStripe &S : M.Stripes) {
    W.u64(S.ByteOffset);
    W.u64(S.Elems);
  }
}

std::vector<uint8_t> encodePublish(const PublishMsg &M) {
  WireWriter W;
  encodePublish(M, W);
  return W.take();
}

bool decodePublish(const std::vector<uint8_t> &P, PublishMsg *M) {
  WireReader R(P);
  uint64_t N;
  if (!R.u64(&M->Generation) || !R.u64(&N) || N == 0 || N > MaxFrameFds)
    return false;
  M->Stripes.assign(static_cast<size_t>(N), PublishStripe());
  for (PublishStripe &S : M->Stripes)
    if (!R.u64(&S.ByteOffset) || !R.u64(&S.Elems))
      return false;
  return R.atEnd();
}

} // namespace dist
} // namespace grassp
