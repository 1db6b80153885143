//===- dist/Protocol.cpp --------------------------------------------------==//

#include "dist/Protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace grassp {
namespace dist {

uint64_t fnv1aBytes(const uint8_t *Data, size_t N) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I != N; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

namespace {

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

/// The frame checksum covers type + length + payload, so a corrupted
/// header word is as detectable as a corrupted payload byte.
uint64_t frameChecksum(MsgType Type, const std::vector<uint8_t> &Payload) {
  uint8_t Head[12];
  for (int I = 0; I != 4; ++I)
    Head[I] = static_cast<uint8_t>(static_cast<uint32_t>(Type) >> (8 * I));
  uint64_t Len = Payload.size();
  for (int I = 0; I != 8; ++I)
    Head[4 + I] = static_cast<uint8_t>(Len >> (8 * I));
  uint64_t H = fnv1aBytes(Head, sizeof(Head));
  // Continue the same FNV stream over the payload.
  for (uint8_t B : Payload) {
    H ^= B;
    H *= 0x100000001b3ULL;
  }
  return H;
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

void WireWriter::u32(uint32_t V) { putLe32(Buf, V); }
void WireWriter::u64(uint64_t V) { putLe64(Buf, V); }

void WireWriter::vecI64(const std::vector<int64_t> &V) {
  u64(V.size());
  for (int64_t X : V)
    i64(X);
}

void WireWriter::vecU32(const std::vector<uint32_t> &V) {
  u64(V.size());
  for (uint32_t X : V)
    u32(X);
}

void WireWriter::str(const std::string &S) {
  u64(S.size());
  Buf.insert(Buf.end(), S.begin(), S.end());
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
  *V = getLe32(Data);
  Data += 4;
  return true;
}

bool WireReader::u64(uint64_t *V) {
  if (End - Data < 8)
    return false;
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
  Head.clear();
  putLe32(Head, FrameMagic);
  putLe32(Head, static_cast<uint32_t>(Type));
  putLe64(Head, P.size());
  putLe64(Head, frameChecksum(Type, P));
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
  Head.clear();
  putLe32(Head, FrameMagic);
  putLe32(Head, static_cast<uint32_t>(Type));
  putLe64(Head, P.size());
  putLe64(Head, frameChecksum(Type, P));
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

RecvStatus FrameReader::fill(int Fd, std::vector<int> *Fds) {
  if (Broken)
    return RecvStatus::Corrupt;
  uint8_t Tmp[1 << 16];
  struct iovec Iov;
  Iov.iov_base = Tmp;
  Iov.iov_len = sizeof(Tmp);
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
  size_t Avail = Buf.size() - Off;
  if (Avail < FrameHeaderBytes)
    return RecvStatus::NeedMore;
  const uint8_t *H = Buf.data() + Off;
  if (getLe32(H) != FrameMagic) {
    Broken = true;
    return RecvStatus::Corrupt;
  }
  uint32_t Type = getLe32(H + 4);
  uint64_t Len = getLe64(H + 8);
  uint64_t Sum = getLe64(H + 16);
  if (Len > MaxFramePayloadBytes || !validMsgType(Type)) {
    Broken = true;
    return RecvStatus::Corrupt;
  }
  if (Avail < FrameHeaderBytes + Len)
    return RecvStatus::NeedMore;
  Out->Type = static_cast<MsgType>(Type);
  Out->Payload.assign(H + FrameHeaderBytes, H + FrameHeaderBytes + Len);
  Off += FrameHeaderBytes + static_cast<size_t>(Len);
  if (frameChecksum(Out->Type, Out->Payload) != Sum) {
    Broken = true;
    return RecvStatus::Corrupt;
  }
  return RecvStatus::Ok;
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
  W.u8(O.Found ? 1 : 0);
  W.i64(O.Boundary);
  W.vecI64(O.D);
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
  if (!R.u64(&M->TaskId) || !R.u64(&M->ShardIndex) || !R.u8(&Found) ||
      !R.i64(&O.Boundary) || !R.vecI64(&O.D) || !R.vecU32(&O.CtrlCur))
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
