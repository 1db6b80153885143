//===- dist/Protocol.h - Framed wire protocol for the dist runtime -------===//
//
// The coordinator and its worker processes speak a length-prefixed,
// checksummed binary protocol over Unix-domain stream sockets. Every
// frame is
//
//   [u32 magic 'GDP2'][u32 type][u64 payload-len][u64 checksum word]
//   [payload bytes]
//
// The checksum word holds CRC32C(type ‖ len ‖ payload) in its low half
// and zero in its high half; a receiver rejects a nonzero high half. The
// CRC covers the header's type+length words as well as the payload, so
// a flipped byte anywhere in a frame — including one planted by the
// dist.frame.corrupt fault site — is detected at the receiver and
// converted into a retry, never into a wrong answer (a CRC of degree 32
// catches every burst of up to 32 bits). On x86 the CRC runs on the
// SSE4.2 crc32 instruction, chosen at run time; elsewhere a slice-by-8
// table computes the same value. Framing after a corrupt frame is
// untrusted by construction: the coordinator kills and restarts the
// offending worker instead of trying to resynchronize.
//
// Payloads are little-endian fixed-width words written by WireWriter and
// read back by the bounds-checked WireReader (a truncated or oversized
// payload decodes as Corrupt, not as garbage). On little-endian hosts
// both move scalars and vectors with memcpy. A payload longer than the
// bytes already buffered is received in place: FrameReader reads the
// rest straight into the frame's payload vector and hands it out by
// move. The messages:
//
//   Hello      worker -> coord   pid + the plan's canonical bytecode
//                                hash (the fork handshake: a worker
//                                whose inherited plan hash differs from
//                                the coordinator's is refused)
//   Task       coord -> worker   a BATCH of shard assignments; each
//                                item is (task id, shard index, attempt
//                                key) plus a descriptor into the
//                                published mapping (generation, stripe,
//                                offset within the stripe, count). The
//                                worker folds items in order and sends
//                                one Result per item as it completes.
//   Result     worker -> coord   task id, shard index, the shard's
//                                serialized runtime::WorkerOutput (its
//                                whole segment summary)
//   Shutdown   coord -> worker   clean exit request
//   Publish    coord -> worker   a new mapping's generation and its
//                                stripe table, one (byte offset, elems)
//                                per stripe; the stripe fds ride the
//                                same frame, all in one SCM_RIGHTS
//                                message. It is the only way a worker
//                                gets a mapping, and SOCK_STREAM
//                                ordering guarantees the worker adopts
//                                it before any Task frame sent
//                                afterwards arrives.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_DIST_PROTOCOL_H
#define GRASSP_DIST_PROTOCOL_H

#include "runtime/Kernels.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grassp {
namespace dist {

inline constexpr uint32_t FrameMagic = 0x32504447; // "GDP2", little-endian.
inline constexpr size_t FrameHeaderBytes = 24;
/// Upper bound a receiver accepts for one payload; anything larger is a
/// corrupt length word, not a legitimate frame.
inline constexpr uint64_t MaxFramePayloadBytes = uint64_t{1} << 31;
/// Upper bound on shard assignments in one batched Task frame; a count
/// above it decodes as Corrupt.
inline constexpr uint64_t MaxTaskItems = uint64_t{1} << 12;
/// Most descriptors one frame may carry via SCM_RIGHTS. FrameReader
/// reserves control room for exactly this many, so it also bounds a
/// Publish frame's stripe count.
inline constexpr unsigned MaxFrameFds = 8;

enum class MsgType : uint32_t {
  Hello = 1,
  Task = 2,
  Result = 3,
  Shutdown = 5,
  Publish = 6,

  // The serve service rides the same GDP2 framing (src/serve/Protocol.h
  // owns the payload codecs). Types 4 and 7..15 are reserved for the
  // dist runtime; a gap value decodes as Corrupt.
  SynthReq = 16,   ///< client -> server  program text to synthesize
  RunReq = 17,     ///< client -> server  program text + workload to fold
  CertifyReq = 18, ///< client -> server  program text to certify
  StatsReq = 19,   ///< client -> server  service counters probe
  ReplyOk = 20,    ///< server -> client  kind-tagged success payload
  ReplyErr = 21,   ///< server -> client  typed error + retry-after
  SolveJob = 22,   ///< server -> solver worker  one cache-miss solve
  SolveDone = 23,  ///< solver worker -> server  solve outcome
};

/// The set of frame types any GDP2 receiver accepts; everything else is
/// a corrupt type word.
inline bool validMsgType(uint32_t T) {
  return (T >= static_cast<uint32_t>(MsgType::Hello) &&
          T <= static_cast<uint32_t>(MsgType::Publish) && T != 4) ||
         (T >= static_cast<uint32_t>(MsgType::SynthReq) &&
          T <= static_cast<uint32_t>(MsgType::SolveDone));
}

struct Frame {
  MsgType Type = MsgType::Hello;
  std::vector<uint8_t> Payload;
};

/// CRC32C (Castagnoli polynomial) of \p N bytes, continuing from \p Crc:
/// pass 0 to start, or an earlier result to extend it, so
/// crc32c(crc32c(0, A), B) is the CRC of A ‖ B. Runs on the SSE4.2
/// instruction when the CPU has it, else on crc32cPortable.
uint32_t crc32c(uint32_t Crc, const uint8_t *Data, size_t N);
/// The slice-by-8 table implementation; the same value on every host.
uint32_t crc32cPortable(uint32_t Crc, const uint8_t *Data, size_t N);
/// The SSE4.2 crc32 implementation. Call it only when
/// crc32cHardwareAvailable(); off x86 it is crc32cPortable.
uint32_t crc32cHardware(uint32_t Crc, const uint8_t *Data, size_t N);
bool crc32cHardwareAvailable();
using Crc32cFn = uint32_t (*)(uint32_t, const uint8_t *, size_t);

/// Little-endian payload serializer.
class WireWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V);
  void u64(uint64_t V);
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void vecI64(const std::vector<int64_t> &V);
  void vecU32(const std::vector<uint32_t> &V);
  /// Length-prefixed byte string (the serve payloads carry program and
  /// plan text).
  void str(const std::string &S);
  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }
  /// Drops the contents but keeps the allocation — the FrameWriter
  /// reuse contract.
  void clear() { Buf.clear(); }
  /// Mutable access for in-place corruption injection.
  std::vector<uint8_t> &buffer() { return Buf; }

private:
  /// Appends \p N bytes in one copy.
  void raw(const void *Src, size_t N);

  std::vector<uint8_t> Buf;
};

/// Bounds-checked payload deserializer: every getter reports false once
/// the payload is exhausted or a length word overruns it, so a decoder
/// can treat any failure as a corrupt frame.
class WireReader {
public:
  WireReader(const uint8_t *Data, size_t N) : Data(Data), End(Data + N) {}
  explicit WireReader(const std::vector<uint8_t> &B)
      : WireReader(B.data(), B.size()) {}

  bool u8(uint8_t *V);
  bool u32(uint32_t *V);
  bool u64(uint64_t *V);
  bool i64(int64_t *V);
  bool vecI64(std::vector<int64_t> *V);
  bool vecU32(std::vector<uint32_t> *V);
  bool str(std::string *S);
  bool atEnd() const { return Data == End; }

private:
  const uint8_t *Data;
  const uint8_t *End;
};

/// Per-connection frame sender that owns its encode buffers and reuses
/// them across frames. The PR 8 transport built a fresh payload vector
/// per frame and copied it once more to plant corruption — two
/// allocations and up to two full copies per Result; this class does
/// zero once warm (corruption is an in-place XOR, undone after send).
class FrameWriter {
public:
  /// Clears (capacity-preserving) and hands out the payload buffer;
  /// encode the message into it, then call send().
  WireWriter &payload() {
    Payload.clear();
    return Payload;
  }

  /// Frames the buffered payload and sends it (loops over partial
  /// sends, MSG_NOSIGNAL so a dead peer surfaces as an error, not
  /// SIGPIPE). \p CorruptByteAt >= 0 flips that payload byte *after*
  /// the checksum is computed — the dist.frame.corrupt fault — so the
  /// receiver's checksum must catch it. Returns false on send failure.
  bool send(int Fd, MsgType Type, int64_t CorruptByteAt = -1);

  /// Same, but attaches \p AttachFds (at most MaxFrameFds) to the
  /// frame's first byte in one SCM_RIGHTS message (the Publish frame's
  /// stripe fds).
  bool sendWithFds(int Fd, MsgType Type, const std::vector<int> &AttachFds);

  /// Frames the buffered payload and appends the wire bytes (header +
  /// payload) to \p Out instead of writing a socket. The path for
  /// nonblocking senders: the owner drains \p Out as POLLOUT allows, so
  /// a peer that stops reading can never block the writer in send(2).
  void frameInto(MsgType Type, std::vector<uint8_t> *Out);

  /// Header + payload bytes of the last frame sent (for byte
  /// accounting).
  uint64_t lastFrameBytes() const { return LastBytes; }

private:
  bool sendPrepared(int Fd, MsgType Type, int64_t CorruptByteAt,
                    const std::vector<int> *AttachFds);

  WireWriter Payload;
  std::vector<uint8_t> Head;
  uint64_t LastBytes = 0;
};

/// One-shot frame write for tests and cold paths; production senders
/// keep a FrameWriter per connection instead.
bool writeFrame(int Fd, MsgType Type, const std::vector<uint8_t> &Payload,
                int64_t CorruptByteAt = -1);

enum class RecvStatus : uint8_t {
  Ok,       ///< A full, checksum-valid frame was produced.
  NeedMore, ///< No complete frame buffered yet.
  Eof,      ///< Peer closed the socket.
  Corrupt,  ///< Bad magic, oversized length, or checksum mismatch.
  Error,    ///< read(2) failed.
};

/// Checks one complete frame held in memory: Ok, with the frame in
/// \p Out, only when the \p N bytes are exactly one frame with a sound
/// header and a matching checksum; Corrupt otherwise. \p Crc picks the
/// CRC32C implementation (FrameReader uses the default).
RecvStatus decodeFrame(const uint8_t *Bytes, size_t N, Frame *Out,
                       Crc32cFn Crc = crc32c);

/// Incremental frame parser: feed bytes as they arrive (the coordinator
/// reads nonblocking-style via poll), pop frames as they complete. A
/// Corrupt verdict is sticky — framing downstream of a bad frame cannot
/// be trusted, so the owner must discard the connection.
///
/// Small frames are read through a stack buffer and a reusable byte
/// buffer. Once a header announces a payload longer than the bytes
/// already buffered, the rest is received straight into that frame's
/// payload vector, and next() hands the vector out by move.
class FrameReader {
public:
  /// One recvmsg(2), never past the end of a payload being received in
  /// place; classifies EOF and errors. Any SCM_RIGHTS fds that arrive
  /// are appended to \p Fds in order (the worker's Publish queue) — or
  /// closed immediately when \p Fds is null, so an unexpected fd can
  /// never leak.
  RecvStatus fill(int Fd, std::vector<int> *Fds);
  RecvStatus fill(int Fd) { return fill(Fd, nullptr); }
  /// Extracts the next complete frame, if any, into \p Out. The storage
  /// of Out->Payload is reused (an in-place receive takes it over), so a
  /// caller that passes the same Frame every time stops allocating once
  /// its buffer has grown to the frames it sees.
  RecvStatus next(Frame *Out);
  /// Blocks until the next frame is complete (Ok) or the stream ends
  /// (Eof/Corrupt/Error); fds arrive on \p Fds as with fill().
  RecvStatus read(int Fd, Frame *Out, std::vector<int> *Fds = nullptr);
  /// True while a frame is partly received. After next() has returned
  /// NeedMore, the bytes buffered so far end inside a frame exactly
  /// when this holds.
  bool midFrame() const { return InPlace || Off != Buf.size(); }

private:
  std::vector<uint8_t> Buf;
  size_t Off = 0; // consumed prefix of Buf.
  bool Broken = false;
  /// The frame whose payload is being received in place: its type, its
  /// length and checksum from the header, and the bytes received so far.
  bool InPlace = false;
  Frame Big;
  uint64_t BigLen = 0;
  uint32_t BigCrc = 0;
  size_t BigGot = 0;
};

/// Blocking single-frame read on a fresh FrameReader (reads exactly one
/// frame or reports Eof/Corrupt/Error).
RecvStatus readFrameBlocking(int Fd, Frame *Out);

// Message payload codecs. Encoders append to the given writer (the
// vector-returning forms are conveniences for tests); decoders report
// false on any truncation/overrun (treat as Corrupt).

struct HelloMsg {
  uint64_t Pid = 0;
  uint64_t PlanHash = 0;
};
void encodeHello(const HelloMsg &M, WireWriter &W);
std::vector<uint8_t> encodeHello(const HelloMsg &M);
bool decodeHello(const std::vector<uint8_t> &P, HelloMsg *M);

/// One shard assignment inside a batched Task frame: a descriptor into
/// the published mapping, never the elements themselves.
struct TaskItem {
  uint64_t TaskId = 0;
  uint64_t ShardIndex = 0;
  /// Fault-injection key for this attempt: pure in (run, attempt,
  /// shard), so chaos runs replay their fault pattern exactly.
  uint64_t AttemptKey = 0;
  /// Which mapping, which of its stripes, and the element window
  /// within that stripe.
  uint64_t Generation = 0;
  uint64_t Stripe = 0;
  uint64_t Offset = 0;
  uint64_t Count = 0;
};

struct TaskMsg {
  std::vector<TaskItem> Items;
};
void encodeTask(const TaskMsg &M, WireWriter &W);
std::vector<uint8_t> encodeTask(const TaskMsg &M);
bool decodeTask(const std::vector<uint8_t> &P, TaskMsg *M);

struct ResultMsg {
  uint64_t TaskId = 0;
  uint64_t ShardIndex = 0;
  runtime::WorkerOutput Out;
};
void encodeResult(const ResultMsg &M, WireWriter &W);
std::vector<uint8_t> encodeResult(const ResultMsg &M);
bool decodeResult(const std::vector<uint8_t> &P, ResultMsg *M);

/// Geometry of one stripe of a published mapping: where element 0
/// sits in the stripe's fd, and how many elements follow.
struct PublishStripe {
  uint64_t ByteOffset = 0;
  uint64_t Elems = 0;
};

/// Announces a new shared mapping as a table of 1..MaxFrameFds stripes;
/// the stripe fds ride SCM_RIGHTS on the same frame, in table order
/// (FrameWriter::sendWithFds).
struct PublishMsg {
  uint64_t Generation = 0;
  std::vector<PublishStripe> Stripes;
};
void encodePublish(const PublishMsg &M, WireWriter &W);
std::vector<uint8_t> encodePublish(const PublishMsg &M);
bool decodePublish(const std::vector<uint8_t> &P, PublishMsg *M);

} // namespace dist
} // namespace grassp

#endif // GRASSP_DIST_PROTOCOL_H
