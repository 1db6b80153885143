//===- serve/Protocol.cpp -------------------------------------------------==//

#include "serve/Protocol.h"

namespace grassp {
namespace serve {

using dist::WireReader;
using dist::WireWriter;

const char *errCodeName(ErrCode C) {
  switch (C) {
  case ErrCode::BadRequest:
    return "bad-request";
  case ErrCode::Overloaded:
    return "overloaded";
  case ErrCode::SolverUnavailable:
    return "solver-unavailable";
  case ErrCode::SynthFailed:
    return "synth-failed";
  case ErrCode::ShuttingDown:
    return "shutting-down";
  case ErrCode::Internal:
    return "internal";
  }
  return "?";
}

bool errCodeFromWire(uint32_t V, ErrCode *Out) {
  if (V < static_cast<uint32_t>(ErrCode::BadRequest) ||
      V > static_cast<uint32_t>(ErrCode::Internal))
    return false;
  *Out = static_cast<ErrCode>(V);
  return true;
}

const char *certWireName(CertWire C) {
  switch (C) {
  case CertWire::Certified:
    return "certified";
  case CertWire::NotCertified:
    return "not-certified";
  case CertWire::Unknown:
    return "unknown";
  case CertWire::Unsupported:
    return "unsupported";
  case CertWire::NotRun:
    return "not-run";
  }
  return "?";
}

namespace {

bool certFromWire(uint8_t V, CertWire *Out) {
  if (V < static_cast<uint8_t>(CertWire::Certified) ||
      V > static_cast<uint8_t>(CertWire::NotRun))
    return false;
  *Out = static_cast<CertWire>(V);
  return true;
}

/// Doubles cross the wire as micro-units in a u64: the protocol stays
/// fixed-width integers end to end.
uint64_t packSeconds(double S) {
  if (S < 0)
    S = 0;
  return static_cast<uint64_t>(S * 1e6);
}
double unpackSeconds(uint64_t U) { return static_cast<double>(U) / 1e6; }

} // namespace

void encodeSynthReq(const SynthReqMsg &M, WireWriter &W) { W.str(M.Program); }
bool decodeSynthReq(const std::vector<uint8_t> &P, SynthReqMsg *M) {
  WireReader R(P);
  return R.str(&M->Program) && R.atEnd();
}

void encodeRunReq(const std::string &Program, const std::vector<int64_t> &Data,
                  WireWriter &W) {
  W.str(Program);
  W.vecI64(Data);
}
bool decodeRunReq(const std::vector<uint8_t> &P, RunReqMsg *M) {
  WireReader R(P);
  return R.str(&M->Program) && R.vecI64(&M->Data) && R.atEnd();
}

void encodeCertifyReq(const CertifyReqMsg &M, WireWriter &W) {
  W.str(M.Program);
}
bool decodeCertifyReq(const std::vector<uint8_t> &P, CertifyReqMsg *M) {
  WireReader R(P);
  return R.str(&M->Program) && R.atEnd();
}

void encodeSynthReply(const SynthReply &M, WireWriter &W) {
  W.u8(static_cast<uint8_t>(ReplyKind::Synth));
  W.u8(M.CacheHit);
  W.str(M.Key);
  W.str(M.Group);
  W.str(M.PlanText);
  W.str(M.Description);
  W.str(M.Bytecode);
  W.u8(static_cast<uint8_t>(M.Cert));
  W.u64(packSeconds(M.SolveSeconds));
}

void encodeRunReply(const RunReply &M, WireWriter &W) {
  W.u8(static_cast<uint8_t>(ReplyKind::Run));
  W.i64(M.Output);
  W.str(M.Tier);
  W.str(M.Key);
}

void encodeCertifyReply(const CertifyReply &M, WireWriter &W) {
  W.u8(static_cast<uint8_t>(ReplyKind::Certify));
  W.u8(M.CacheHit);
  W.str(M.Key);
  W.str(M.Group);
  W.u8(static_cast<uint8_t>(M.Cert));
}

void encodeStatsReply(const StatsReply &M, WireWriter &W) {
  W.u8(static_cast<uint8_t>(ReplyKind::Stats));
  W.u64(M.Counters.size());
  for (const std::pair<std::string, uint64_t> &KV : M.Counters) {
    W.str(KV.first);
    W.u64(KV.second);
  }
}

bool decodeReplyOk(const std::vector<uint8_t> &P, OkReply *M) {
  WireReader R(P);
  uint8_t Kind;
  if (!R.u8(&Kind))
    return false;
  switch (static_cast<ReplyKind>(Kind)) {
  case ReplyKind::Synth: {
    SynthReply &S = M->Synth;
    uint8_t Cert;
    uint64_t Sec;
    if (!(R.u8(&S.CacheHit) && R.str(&S.Key) && R.str(&S.Group) &&
          R.str(&S.PlanText) && R.str(&S.Description) && R.str(&S.Bytecode) &&
          R.u8(&Cert) && R.u64(&Sec) && R.atEnd()))
      return false;
    if (!certFromWire(Cert, &S.Cert))
      return false;
    S.SolveSeconds = unpackSeconds(Sec);
    M->Kind = ReplyKind::Synth;
    return true;
  }
  case ReplyKind::Run: {
    RunReply &S = M->Run;
    if (!(R.i64(&S.Output) && R.str(&S.Tier) && R.str(&S.Key) && R.atEnd()))
      return false;
    M->Kind = ReplyKind::Run;
    return true;
  }
  case ReplyKind::Certify: {
    CertifyReply &S = M->Certify;
    uint8_t Cert;
    if (!(R.u8(&S.CacheHit) && R.str(&S.Key) && R.str(&S.Group) &&
          R.u8(&Cert) && R.atEnd()))
      return false;
    if (!certFromWire(Cert, &S.Cert))
      return false;
    M->Kind = ReplyKind::Certify;
    return true;
  }
  case ReplyKind::Stats: {
    StatsReply &S = M->Stats;
    uint64_t N;
    if (!R.u64(&N) || N > (1u << 16))
      return false;
    S.Counters.clear();
    for (uint64_t I = 0; I < N; ++I) {
      std::string K;
      uint64_t V;
      if (!R.str(&K) || !R.u64(&V))
        return false;
      S.Counters.emplace_back(std::move(K), V);
    }
    if (!R.atEnd())
      return false;
    M->Kind = ReplyKind::Stats;
    return true;
  }
  }
  return false;
}

void encodeErrReply(const ErrReply &M, WireWriter &W) {
  W.u32(static_cast<uint32_t>(M.Code));
  W.u32(M.RetryAfterMs);
  W.str(M.Message);
}

bool decodeErrReply(const std::vector<uint8_t> &P, ErrReply *M) {
  WireReader R(P);
  uint32_t Code;
  if (!(R.u32(&Code) && R.u32(&M->RetryAfterMs) && R.str(&M->Message) &&
        R.atEnd()))
    return false;
  return errCodeFromWire(Code, &M->Code);
}

void encodeSolveJob(const SolveJobMsg &M, WireWriter &W) {
  W.u64(M.JobId);
  W.u64(M.Key);
  W.u64(M.FaultKey);
  W.u32(M.SmtTimeoutMs);
  W.u32(M.CertTimeoutMs);
  W.str(M.Program);
}

bool decodeSolveJob(const std::vector<uint8_t> &P, SolveJobMsg *M) {
  WireReader R(P);
  return R.u64(&M->JobId) && R.u64(&M->Key) && R.u64(&M->FaultKey) &&
         R.u32(&M->SmtTimeoutMs) && R.u32(&M->CertTimeoutMs) &&
         R.str(&M->Program) && R.atEnd();
}

void encodeSolveDone(const SolveDoneMsg &M, WireWriter &W) {
  W.u64(M.JobId);
  W.u64(M.Key);
  W.u8(M.Solved);
  W.u8(static_cast<uint8_t>(M.Cert));
  W.str(M.PlanText);
  W.str(M.Group);
  W.str(M.FailureReason);
  W.u64(packSeconds(M.Seconds));
  W.u32(M.Candidates);
  W.u32(M.SmtChecks);
}

bool decodeSolveDone(const std::vector<uint8_t> &P, SolveDoneMsg *M) {
  WireReader R(P);
  uint8_t Cert;
  uint64_t Sec;
  if (!(R.u64(&M->JobId) && R.u64(&M->Key) && R.u8(&M->Solved) &&
        R.u8(&Cert) && R.str(&M->PlanText) && R.str(&M->Group) &&
        R.str(&M->FailureReason) && R.u64(&Sec) && R.u32(&M->Candidates) &&
        R.u32(&M->SmtChecks) && R.atEnd()))
    return false;
  if (!certFromWire(Cert, &M->Cert))
    return false;
  M->Seconds = unpackSeconds(Sec);
  return true;
}

} // namespace serve
} // namespace grassp
