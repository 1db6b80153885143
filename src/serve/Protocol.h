//===- serve/Protocol.h - Payload codecs for the serve service -----------===//
//
// The serve service speaks the same GDP2 framing as the dist runtime:
// [u32 magic 'GDP2'][u32 type][u64 payload-len][u64 checksum word]
// [payload], with CRC32C(type ‖ len ‖ payload) in the checksum word's
// low half. dist/Protocol.h owns the frame layer and the MsgType
// registry (types 16..23 are ours); this header owns the payload codecs.
//
// Client <-> server (one Unix-socket connection, strict request/reply
// lockstep per connection):
//
//   SynthReq    program text            -> ReplyOk(Synth) | ReplyErr
//   RunReq      program text + workload -> ReplyOk(Run)   | ReplyErr
//   CertifyReq  program text            -> ReplyOk(Certify) | ReplyErr
//   StatsReq    (empty)                 -> ReplyOk(Stats)
//
// ReplyErr carries a typed error code — rendered "error[overloaded]",
// "error[solver-unavailable]", ... — plus a retry-after hint for the
// shedding codes, so a client can tell "back off and retry" from "this
// program genuinely has no plan".
//
// Server <-> solver worker (socketpair to a forked, prewarmed child):
//
//   SolveJob    job id + key + program + budgets
//   SolveDone   outcome: plan text + group + certification, or failure
//
// All decoders are strict (any truncation/overrun -> false; treat the
// frame as corrupt).
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SERVE_PROTOCOL_H
#define GRASSP_SERVE_PROTOCOL_H

#include "dist/Protocol.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace grassp {
namespace serve {

/// Typed request errors. The names are wire-stable: clients and tests
/// match on errCodeName().
enum class ErrCode : uint32_t {
  BadRequest = 1,        ///< Malformed frame or unparsable program.
  Overloaded = 2,        ///< Queue past high water; shed with retry-after.
  SolverUnavailable = 3, ///< Key circuit-broken after repeated solver
                         ///< crashes; quarantined with retry-after.
  SynthFailed = 4,       ///< Synthesis genuinely found no plan.
  ShuttingDown = 5,      ///< Draining; no new synth work admitted.
  Internal = 6,          ///< Unexpected server-side failure.
};

/// "bad-request", "overloaded", "solver-unavailable", "synth-failed",
/// "shutting-down", "internal".
const char *errCodeName(ErrCode C);
bool errCodeFromWire(uint32_t V, ErrCode *Out);

/// Certification outcome on the wire (chc::CertStatus + NotRun).
enum class CertWire : uint8_t {
  Certified = 1,
  NotCertified = 2,
  Unknown = 3,
  Unsupported = 4,
  NotRun = 5,
};
const char *certWireName(CertWire C);

enum class ReplyKind : uint8_t {
  Synth = 1,
  Run = 2,
  Certify = 3,
  Stats = 4,
};

struct SynthReqMsg {
  std::string Program;
};
struct RunReqMsg {
  std::string Program;
  std::vector<int64_t> Data;
};
struct CertifyReqMsg {
  std::string Program;
};

struct SynthReply {
  uint8_t CacheHit = 0; ///< 1: answered with zero solver work.
  std::string Key;      ///< canonical key, hex.
  std::string Group;    ///< Table-1 group of the plan.
  std::string PlanText;
  std::string Description; ///< Plan.describe() rendering.
  std::string Bytecode;    ///< Disassembled optimized fold function.
  CertWire Cert = CertWire::NotRun;
  double SolveSeconds = 0; ///< Solver wall clock (original solve).
};

struct RunReply {
  int64_t Output = 0;
  std::string Tier; ///< Execution tier that folded the workload.
  std::string Key;
};

struct CertifyReply {
  uint8_t CacheHit = 0;
  std::string Key;
  std::string Group;
  CertWire Cert = CertWire::NotRun;
};

struct StatsReply {
  std::vector<std::pair<std::string, uint64_t>> Counters;
};

struct ErrReply {
  ErrCode Code = ErrCode::Internal;
  uint32_t RetryAfterMs = 0;
  std::string Message;
};

struct SolveJobMsg {
  uint64_t JobId = 0;
  uint64_t Key = 0;
  /// Fault-site key for this attempt: pure in (key, attempt), so chaos
  /// runs replay worker kills/hangs exactly.
  uint64_t FaultKey = 0;
  uint32_t SmtTimeoutMs = 30000;
  uint32_t CertTimeoutMs = 20000;
  std::string Program;
};

struct SolveDoneMsg {
  uint64_t JobId = 0;
  uint64_t Key = 0;
  uint8_t Solved = 0;
  CertWire Cert = CertWire::NotRun;
  std::string PlanText;
  std::string Group;
  std::string FailureReason;
  double Seconds = 0;
  uint32_t Candidates = 0;
  uint32_t SmtChecks = 0;
};

// Encoders append to a WireWriter; decoders are strict.
void encodeSynthReq(const SynthReqMsg &M, dist::WireWriter &W);
bool decodeSynthReq(const std::vector<uint8_t> &P, SynthReqMsg *M);
/// Takes the request's fields rather than a RunReqMsg, so a client
/// encodes straight from its own data vector.
void encodeRunReq(const std::string &Program, const std::vector<int64_t> &Data,
                  dist::WireWriter &W);
bool decodeRunReq(const std::vector<uint8_t> &P, RunReqMsg *M);
void encodeCertifyReq(const CertifyReqMsg &M, dist::WireWriter &W);
bool decodeCertifyReq(const std::vector<uint8_t> &P, CertifyReqMsg *M);

void encodeSynthReply(const SynthReply &M, dist::WireWriter &W);
void encodeRunReply(const RunReply &M, dist::WireWriter &W);
void encodeCertifyReply(const CertifyReply &M, dist::WireWriter &W);
void encodeStatsReply(const StatsReply &M, dist::WireWriter &W);

/// A ReplyOk payload is a ReplyKind tag byte followed by the kind's
/// encoding; decodeReplyOk dispatches on the tag.
struct OkReply {
  ReplyKind Kind = ReplyKind::Synth;
  SynthReply Synth;
  RunReply Run;
  CertifyReply Certify;
  StatsReply Stats;
};
bool decodeReplyOk(const std::vector<uint8_t> &P, OkReply *M);

void encodeErrReply(const ErrReply &M, dist::WireWriter &W);
bool decodeErrReply(const std::vector<uint8_t> &P, ErrReply *M);

void encodeSolveJob(const SolveJobMsg &M, dist::WireWriter &W);
bool decodeSolveJob(const std::vector<uint8_t> &P, SolveJobMsg *M);
void encodeSolveDone(const SolveDoneMsg &M, dist::WireWriter &W);
bool decodeSolveDone(const std::vector<uint8_t> &P, SolveDoneMsg *M);

} // namespace serve
} // namespace grassp

#endif // GRASSP_SERVE_PROTOCOL_H
