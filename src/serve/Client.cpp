//===- serve/Client.cpp --------------------------------------------------==//

#include "serve/Client.h"

#include "support/Cancel.h"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace grassp {
namespace serve {

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

bool ServeClient::connect(const std::string &SocketPath, double TimeoutSec,
                          std::string *Err) {
  ignoreSigpipe();
  close();
  struct sockaddr_un Addr;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + SocketPath;
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);

  Deadline Until = Deadline::after(TimeoutSec);
  for (;;) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      if (Err)
        *Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
      return true;
    int E = errno;
    ::close(Fd);
    Fd = -1;
    // The server may still be binding (ENOENT) or draining its listen
    // backlog (ECONNREFUSED): retry inside the budget.
    if ((E != ENOENT && E != ECONNREFUSED) || Until.expired()) {
      if (Err)
        *Err = "connect " + SocketPath + ": " + std::strerror(E);
      return false;
    }
    ::usleep(10000);
  }
}

bool ServeClient::roundTrip(dist::MsgType Type, ClientReply *Out) {
  if (Fd < 0)
    return false;
  if (!Writer.send(Fd, Type)) {
    close();
    return false;
  }
  dist::Frame F;
  if (dist::readFrameBlocking(Fd, &F) != dist::RecvStatus::Ok) {
    close();
    return false;
  }
  if (F.Type == dist::MsgType::ReplyOk) {
    Out->IsOk = true;
    if (!decodeReplyOk(F.Payload, &Out->Ok)) {
      close();
      return false;
    }
    return true;
  }
  if (F.Type == dist::MsgType::ReplyErr) {
    Out->IsOk = false;
    if (!decodeErrReply(F.Payload, &Out->Err)) {
      close();
      return false;
    }
    return true;
  }
  close(); // a reply that is neither: protocol violation.
  return false;
}

bool ServeClient::synth(const std::string &ProgramText, ClientReply *Out) {
  SynthReqMsg M;
  M.Program = ProgramText;
  encodeSynthReq(M, Writer.payload());
  return roundTrip(dist::MsgType::SynthReq, Out);
}

bool ServeClient::run(const std::string &ProgramText,
                      const std::vector<int64_t> &Data, ClientReply *Out) {
  encodeRunReq(ProgramText, Data, Writer.payload());
  return roundTrip(dist::MsgType::RunReq, Out);
}

bool ServeClient::certify(const std::string &ProgramText, ClientReply *Out) {
  CertifyReqMsg M;
  M.Program = ProgramText;
  encodeCertifyReq(M, Writer.payload());
  return roundTrip(dist::MsgType::CertifyReq, Out);
}

bool ServeClient::stats(ClientReply *Out) {
  Writer.payload(); // empty payload.
  return roundTrip(dist::MsgType::StatsReq, Out);
}

bool ServeClient::sendTruncatedSynth(const std::string &ProgramText) {
  if (Fd < 0)
    return false;
  SynthReqMsg M;
  M.Program = ProgramText;
  encodeSynthReq(M, Writer.payload());
  // Frame the FULL payload, then send the header and only half of the
  // payload and hang up: the server's FrameReader must classify the torn
  // tail as EOF mid-frame and drop the connection, nothing more.
  std::vector<uint8_t> Buf;
  Writer.frameInto(dist::MsgType::SynthReq, &Buf);
  Buf.resize(dist::FrameHeaderBytes +
             (Buf.size() - dist::FrameHeaderBytes) / 2);

  size_t Off = 0;
  while (Off < Buf.size()) {
    ssize_t N = ::send(Fd, Buf.data() + Off, Buf.size() - Off, MSG_NOSIGNAL);
    if (N <= 0) {
      close();
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  close();
  return true;
}

std::string describeReply(const ClientReply &R) {
  std::ostringstream OS;
  if (!R.IsOk) {
    OS << "error[" << errCodeName(R.Err.Code) << "]";
    if (R.Err.RetryAfterMs)
      OS << " retry-after=" << R.Err.RetryAfterMs << "ms";
    if (!R.Err.Message.empty())
      OS << " " << R.Err.Message;
    return OS.str();
  }
  switch (R.Ok.Kind) {
  case ReplyKind::Synth:
    OS << (R.Ok.Synth.CacheHit ? "hit" : "solved") << " key="
       << R.Ok.Synth.Key << " group=" << R.Ok.Synth.Group << " cert="
       << certWireName(R.Ok.Synth.Cert) << " plan=" << R.Ok.Synth.PlanText;
    break;
  case ReplyKind::Run:
    OS << "run output=" << R.Ok.Run.Output << " tier=" << R.Ok.Run.Tier
       << " key=" << R.Ok.Run.Key;
    break;
  case ReplyKind::Certify:
    OS << (R.Ok.Certify.CacheHit ? "hit" : "solved") << " key="
       << R.Ok.Certify.Key << " group=" << R.Ok.Certify.Group << " cert="
       << certWireName(R.Ok.Certify.Cert);
    break;
  case ReplyKind::Stats:
    for (const auto &KV : R.Ok.Stats.Counters)
      OS << KV.first << "=" << KV.second << " ";
    break;
  }
  return OS.str();
}

} // namespace serve
} // namespace grassp
