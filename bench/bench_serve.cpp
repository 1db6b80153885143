//===- bench/bench_serve.cpp - Serve cache-hit vs cold-solve latency ------==//
//
// The load benchmark for `grassp serve` (BENCH_serve.json):
//
//  * Phase 1 — cold vs hit. A fresh server on a fresh cache dir; for
//    each benchmark one COLD synth request (the solver pool does the
//    real CEGIS + Spacer work) then K hot repeats answered from the
//    solution cache. The headline column is the speedup: the whole
//    point of the service is that a hit costs a hash lookup and two
//    socket frames, orders of magnitude under a solve.
//
//  * Phase 2 — served runs. RunReq round trips at 2^10, 2^16 and 2^20
//    elements per run program, after one untimed warm-up run: p50/p90
//    latency next to the p50 of the same fold run locally, and every
//    served output checked against CompiledProgram::runSerial. The gap
//    between the two columns is the wire's cost: encode, checksum, two
//    socket copies, decode and reply.
//
//  * Phase 3 — overload. A batch of uncached synth requests is pushed
//    onto the server raw (frames written back-to-back on separate
//    connections, replies not yet read) so queued + in-flight work
//    crosses the high-water mark. While the pool grinds, the main
//    client keeps issuing cache hits and records their latency — the
//    degradation contract says hits stay fast and bounded while synth
//    misses are shed with error[overloaded] + retry-after. The p50/p99
//    of those under-load hit latencies and the shed/ok split of the
//    flood are the measured artifact.
//
// Usage: bench_serve [--hits K] [--pool N] [--high-water N]
//                    [--json FILE]
//
//===----------------------------------------------------------------------===//

#include "dist/Protocol.h"
#include "lang/Benchmarks.h"
#include "runtime/Kernels.h"
#include "runtime/Workload.h"
#include "serve/Client.h"
#include "serve/ProgramText.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Args.h"
#include "support/Cancel.h"
#include "support/ChildProc.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace grassp;

namespace {

/// Phase-1 suite: one per scan/fold shape, all fast enough that the
/// cold column measures solver work rather than SMT timeouts.
const char *const HotJobs[] = {"count",    "sum",        "max_elem",
                               "sum_even", "count_gt",   "second_max"};

/// Phase-2 programs: the lightest fold and an automaton row.
const char *const RunJobs[] = {"sum", "count_102"};
const unsigned RunLog2Sizes[] = {10, 16, 20};
constexpr unsigned RunRepeats = 40;

struct RunRow {
  std::string Name;
  size_t Elements = 0;
  double P50 = 0, P90 = 0; ///< served round trip
  double FoldP50 = 0;      ///< the same fold, in process
  std::string Tier;
};

struct Row {
  std::string Name;
  double ColdSec = 0;
  double HitSec = 0; ///< median of the hot repeats.
  std::string Group;
  std::string Cert;
};

pid_t forkServer(const std::string &Socket, const std::string &CacheDir,
                 size_t Pool, size_t HighWater) {
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;
  serve::ServerOptions SO;
  SO.SocketPath = Socket;
  SO.CacheDir = CacheDir;
  SO.PoolSize = Pool;
  SO.HighWaterJobs = HighWater;
  SO.SmtTimeoutMs = 15000;
  SO.CertTimeoutMs = 15000;
  SO.Root = installSignalSource();
  SO.Drain = installDrainSignalSource();
  serve::ServeServer Server;
  std::string Err;
  if (!Server.init(SO, &Err)) {
    std::fprintf(stderr, "bench server init failed: %s\n", Err.c_str());
    std::fflush(nullptr);
    ::_exit(9);
  }
  int Rc = Server.run();
  std::fflush(nullptr);
  ::_exit(Rc);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * (V.size() - 1));
  return V[I];
}

/// Connects and writes one SynthReq frame WITHOUT reading the reply —
/// the overload generator. Returns the fd (or -1).
int pushSynthRaw(const std::string &Socket, const std::string &Text) {
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Socket.c_str(), sizeof(Addr.sun_path) - 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  serve::SynthReqMsg M;
  M.Program = Text;
  dist::WireWriter W;
  serve::encodeSynthReq(M, W);
  if (!dist::writeFrame(Fd, dist::MsgType::SynthReq, W.bytes())) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Hits = 30;
  unsigned Pool = 2;
  unsigned HighWater = 2;
  const char *JsonPath = nullptr;
  for (int I = 1; I != argc; ++I) {
    NumericFlag Num(argc, argv, I);
    if (Num("--hits", &Hits) || Num("--pool", &Pool) ||
        Num("--high-water", &HighWater))
      continue;
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--hits K] [--pool N] [--high-water N] "
                 "[--json FILE]  (got '%s')\n",
                 argv[0], argv[I]);
    return 2;
  }

  char Tmpl[] = "/tmp/grassp-bench-serve-XXXXXX";
  const char *Dir = ::mkdtemp(Tmpl);
  if (!Dir) {
    std::fprintf(stderr, "error: mkdtemp failed\n");
    return 1;
  }
  std::string Socket = std::string(Dir) + "/serve.sock";
  std::string CacheDir = std::string(Dir) + "/cache";

  pid_t Server = forkServer(Socket, CacheDir, Pool, HighWater);
  serve::ServeClient Client;
  std::string Err;
  if (!Client.connect(Socket, 10.0, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    stopChild(Server, SIGTERM, 10.0);
    return 1;
  }

  std::printf("grassp serve load benchmark (pool=%u, high-water=%u, "
              "%u hot repeats)\n\n",
              Pool, HighWater, Hits);
  std::printf("%-16s %-11s %-11s %-10s %-5s %s\n", "benchmark", "cold(s)",
              "hit(s)", "speedup", "group", "cert");
  std::printf("%s\n", std::string(68, '-').c_str());

  // --- Phase 1: cold solve, then cache hits ---
  std::vector<Row> Rows;
  bool Ok = true;
  for (const char *Name : HotJobs) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    if (!P)
      continue;
    std::string Text = serve::printProgramText(*P);
    Row R;
    R.Name = Name;

    serve::ClientReply Reply;
    Stopwatch Cold;
    if (!Client.synth(Text, &Reply) || !Reply.IsOk) {
      std::printf("%-16s cold synth FAILED (%s)\n", Name,
                  Reply.IsOk ? "transport" : Reply.Err.Message.c_str());
      Ok = false;
      continue;
    }
    R.ColdSec = Cold.seconds();
    if (Reply.Ok.Synth.CacheHit) {
      std::printf("%-16s expected a MISS on a fresh cache\n", Name);
      Ok = false;
    }
    R.Group = Reply.Ok.Synth.Group;
    R.Cert = serve::certWireName(Reply.Ok.Synth.Cert);

    std::vector<double> HitSec;
    for (unsigned I = 0; I != Hits; ++I) {
      Stopwatch W;
      if (!Client.synth(Text, &Reply) || !Reply.IsOk ||
          !Reply.Ok.Synth.CacheHit) {
        std::printf("%-16s hot repeat %u was not a cache hit\n", Name, I);
        Ok = false;
        break;
      }
      HitSec.push_back(W.seconds());
    }
    R.HitSec = percentile(HitSec, 0.5);
    Rows.push_back(R);
    std::printf("%-16s %-11.4f %-11.6f %-10.0fx %-5s %s\n", Name, R.ColdSec,
                R.HitSec, R.HitSec > 0 ? R.ColdSec / R.HitSec : 0,
                R.Group.c_str(), R.Cert.c_str());
  }
  std::printf("%s\n", std::string(68, '-').c_str());

  // --- Phase 2: served runs, checked against the local serial fold ---
  std::printf("\n%-12s %-9s %-11s %-11s %-11s %s\n", "run", "elements",
              "p50(s)", "p90(s)", "fold(s)", "tier");
  std::vector<RunRow> RunRows;
  for (const char *Name : RunJobs) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    if (!P)
      continue;
    std::string Text = serve::printProgramText(*P);
    runtime::CompiledProgram CP(*P);
    for (unsigned Log2 : RunLog2Sizes) {
      RunRow R;
      R.Name = Name;
      R.Elements = size_t{1} << Log2;
      std::vector<int64_t> Data = runtime::generateWorkload(*P, R.Elements, 7);
      std::vector<runtime::SegmentView> Segs = {{Data.data(), Data.size()}};
      int64_t Want = CP.runSerial(Segs);
      std::vector<double> Served, Fold;
      serve::ClientReply Reply;
      for (unsigned I = 0; I <= RunRepeats; ++I) {
        Stopwatch W;
        bool Sent = Client.run(Text, Data, &Reply);
        double Sec = W.seconds();
        if (!Sent || !Reply.IsOk || Reply.Ok.Run.Output != Want) {
          std::printf("%-12s run of %zu elements FAILED (%s)\n", Name,
                      R.Elements,
                      !Sent         ? "transport"
                      : !Reply.IsOk ? Reply.Err.Message.c_str()
                                    : "output differs from runSerial");
          Ok = false;
          break;
        }
        if (I == 0)
          continue; // the warm-up: the server compiles the program here.
        Served.push_back(Sec);
        Stopwatch F;
        CP.runSerial(Segs);
        Fold.push_back(F.seconds());
      }
      R.P50 = percentile(Served, 0.5);
      R.P90 = percentile(Served, 0.9);
      R.FoldP50 = percentile(Fold, 0.5);
      R.Tier = Reply.IsOk ? Reply.Ok.Run.Tier : "-";
      RunRows.push_back(R);
      std::printf("%-12s %-9zu %-11.6f %-11.6f %-11.6f %s\n", Name,
                  R.Elements, R.P50, R.P90, R.FoldP50, R.Tier.c_str());
    }
  }

  // --- Phase 3: overload — flood uncached solves, measure hits ---
  // Every B1/B2 benchmark not in the hot suite is an uncached key; the
  // raw pushes park real solver work on the pool past the high-water
  // mark without this process blocking on the replies.
  std::vector<std::string> FloodTexts;
  for (const lang::SerialProgram &P : lang::allBenchmarks()) {
    if (P.ExpectedGroup != "B1" && P.ExpectedGroup != "B2")
      continue;
    bool Hot = false;
    for (const char *Name : HotJobs)
      Hot = Hot || P.Name == Name;
    if (!Hot)
      FloodTexts.push_back(serve::printProgramText(P));
    if (FloodTexts.size() == 8)
      break;
  }
  std::vector<int> FloodFds;
  for (const std::string &Text : FloodTexts) {
    int Fd = pushSynthRaw(Socket, Text);
    if (Fd >= 0)
      FloodFds.push_back(Fd);
  }

  // Hit latency under load, measured while the pool is saturated.
  std::vector<double> LoadHit;
  std::string HotText =
      serve::printProgramText(*lang::findBenchmark(HotJobs[0]));
  Deadline LoadWindow = Deadline::after(2.0);
  while (!LoadWindow.expired()) {
    serve::ClientReply Reply;
    Stopwatch W;
    if (!Client.synth(HotText, &Reply) || !Reply.IsOk) {
      Ok = false;
      break;
    }
    LoadHit.push_back(W.seconds());
  }

  // Now collect the flood's replies and tally the shed/solved split.
  unsigned FloodOk = 0, FloodShed = 0, FloodOther = 0;
  for (int Fd : FloodFds) {
    dist::Frame F;
    if (dist::readFrameBlocking(Fd, &F) == dist::RecvStatus::Ok) {
      serve::ErrReply E;
      if (F.Type == dist::MsgType::ReplyOk)
        ++FloodOk;
      else if (F.Type == dist::MsgType::ReplyErr &&
               serve::decodeErrReply(F.Payload, &E) &&
               E.Code == serve::ErrCode::Overloaded)
        ++FloodShed;
      else
        ++FloodOther;
    } else {
      ++FloodOther;
    }
    ::close(Fd);
  }

  double P50 = percentile(LoadHit, 0.5), P99 = percentile(LoadHit, 0.99);
  std::printf("\noverload: %zu uncached solves pushed past high-water=%u: "
              "%u solved, %u shed with error[overloaded], %u other\n",
              FloodFds.size(), HighWater, FloodOk, FloodShed, FloodOther);
  std::printf("cache hits under that load: %zu served, p50 %.6fs, "
              "p99 %.6fs\n",
              LoadHit.size(), P50, P99);
  if (FloodShed == 0) {
    std::printf("EXPECTED at least one shed reply under overload\n");
    Ok = false;
  }

  stopChild(Server, SIGTERM, 10.0);

  double WorstSpeedup = 1e30;
  for (const Row &R : Rows)
    WorstSpeedup =
        std::min(WorstSpeedup, R.HitSec > 0 ? R.ColdSec / R.HitSec : 0);
  std::printf("\nworst hit-vs-cold speedup: %.0fx (target: >= 100x)\n",
              Rows.empty() ? 0 : WorstSpeedup);
  if (Rows.empty() || WorstSpeedup < 100)
    Ok = false;

  if (JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"pool\": %u,\n  \"high_water\": %u,\n"
                 "  \"hot_repeats\": %u,\n  \"jobs\": [\n",
                 Pool, HighWater, Hits);
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"cold_s\": %.6f, \"hit_s\": "
                   "%.6f, \"speedup\": %.1f,\n     \"group\": \"%s\", "
                   "\"cert\": \"%s\"}%s\n",
                   R.Name.c_str(), R.ColdSec, R.HitSec,
                   R.HitSec > 0 ? R.ColdSec / R.HitSec : 0, R.Group.c_str(),
                   R.Cert.c_str(), I + 1 == Rows.size() ? "" : ",");
    }
    std::fprintf(F, "  ],\n  \"runs\": [\n");
    for (size_t I = 0; I != RunRows.size(); ++I) {
      const RunRow &R = RunRows[I];
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"elements\": %zu, \"p50_s\": "
                   "%.6f, \"p90_s\": %.6f, \"fold_p50_s\": %.6f,\n"
                   "     \"tier\": \"%s\"}%s\n",
                   R.Name.c_str(), R.Elements, R.P50, R.P90, R.FoldP50,
                   R.Tier.c_str(), I + 1 == RunRows.size() ? "" : ",");
    }
    std::fprintf(F,
                 "  ],\n  \"overload\": {\"pushed\": %zu, \"solved\": %u, "
                 "\"shed\": %u, \"other\": %u,\n    \"hits_served\": %zu, "
                 "\"hit_p50_s\": %.6f, \"hit_p99_s\": %.6f},\n"
                 "  \"worst_speedup\": %.1f\n}\n",
                 FloodFds.size(), FloodOk, FloodShed, FloodOther,
                 LoadHit.size(), P50, P99,
                 Rows.empty() ? 0 : WorstSpeedup);
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  }
  return Ok ? 0 : 1;
}
