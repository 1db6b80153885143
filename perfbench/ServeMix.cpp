//===- perfbench/ServeMix.cpp - Mixed load on a forked serve::ServeServer -===//
//
// A ServeServer (solver pool of 2, fresh cache directory) is forked from
// this process and driven in a closed loop over three connections:
//
//   misses     one connection sends cold synth requests back to back:
//              constant-variants of count_gt, sum_gt and search in
//              rotation, so misses never run out; the sequence is the
//              same for every seed (see missConstant);
//   hits/runs  two connections send cache hits on re-spelled,
//              alpha-renamed variants of the programs solved in set-up,
//              and, drawn with chance 1 in 4 per request, runs of 64K
//              seeded elements. The 1-in-4 run share is a free choice,
//              not a measured mix. Hits and runs are timed and gated
//              apart, so the share sets only how much run traffic the
//              hits contend with; no gated metric blends the two.
//
// Set-up forks the server and solves the hit programs. Every reply is
// checked: misses and hits must return plans of the expected group that
// fold a seeded input like lang::runSerial (validated outside the timed
// window), every hit for one variant must return the same plan, and run
// outputs must equal an in-process reference folded on the loop-VM tier.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Kernels.h"
#include "runtime/Workload.h"
#include "serve/CanonHash.h"
#include "serve/Client.h"
#include "serve/ProgramText.h"
#include "serve/Server.h"
#include "support/Cancel.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

using namespace grassp;

namespace {

constexpr unsigned SetupReps = 5;
constexpr size_t PoolSize = 2;
constexpr unsigned Variants = 8;   ///< alpha-variants per hit program.
constexpr unsigned RunInputs = 8;  ///< seeded run inputs per hit program.
constexpr size_t RunN = 65536;
constexpr unsigned RunEvery = 4;   ///< a request is a run with chance 1 in 4
                                   ///< (a free choice, see above).
constexpr unsigned MinMisses = 10; ///< the miss median needs samples.
constexpr size_t CheckN = 512;

const char *const HitPrograms[] = {"count", "sum", "max_elem", "count_gt"};

/// Miss bases: a program of the suite and the literal its variants vary.
struct MissBase {
  const char *Name;
  const char *Literal;
};
const MissBase MissBases[] = {
    {"count_gt", "5"}, {"sum_gt", "5"}, {"search", "7"}};

/// The constant of \p B's \p J-th variant: 1, -1, 2, -2, ... skipping
/// the program's own literal. The same for every seed: solve time
/// depends on the constant, so every run solves the same programs.
int64_t missConstant(const MissBase &B, unsigned J) {
  int64_t Own = std::stoll(B.Literal);
  for (int64_t Mag = 1, Seen = 0;; ++Mag)
    for (int64_t K : {Mag, -Mag})
      if (K != Own && Seen++ == J)
        return K;
}

uint64_t mix(uint64_t Seed, uint64_t A, uint64_t B = 0) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + A * 1000003 + B);
  return R.next();
}

/// "(", ")" and atoms of a printed program.
std::vector<std::string> tokens(const std::string &Text) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : Text) {
    bool Paren = C == '(' || C == ')';
    if (Paren || C == ' ' || C == '\t' || C == '\n') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
      if (Paren)
        Out.push_back(std::string(1, C));
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// Joins tokens; with \p R, separators are random runs of spaces, tabs
/// and newlines with an occasional comment line.
std::string join(const std::vector<std::string> &Toks, Rng *R) {
  static const char *const Seps[] = {" ", "  ", "\t", "\n", " \n  "};
  std::string Out;
  for (size_t I = 0; I != Toks.size(); ++I) {
    if (I != 0) {
      if (!R)
        Out += ' ';
      else if (R->chance(1, 16))
        Out += " ; re-spelled " + std::to_string(R->bounded(1000)) + "\n";
      else
        Out += Seps[R->bounded(5)];
    }
    Out += Toks[I];
  }
  return Out;
}

/// An alpha-renamed, re-spelled copy of \p P's text: same canonical key.
std::string alphaVariant(const lang::SerialProgram &P, unsigned K, Rng &R) {
  std::vector<std::string> Toks = tokens(serve::printProgramText(P));
  std::map<std::string, std::string> Rename;
  for (size_t I = 0; I != P.State.size(); ++I)
    Rename[P.State.field(I).Name] =
        "v" + std::to_string(K) + "f" + std::to_string(I);
  for (size_t I = 0; I != Toks.size(); ++I) {
    if (I > 0 && Toks[I - 1] == "name")
      Toks[I] = P.Name + "_alpha" + std::to_string(K);
    else if (auto It = Rename.find(Toks[I]); It != Rename.end())
      Toks[I] = It->second;
  }
  return join(Toks, &R);
}

/// \p P's text with its literal \p Lit replaced by \p Value.
std::string constantVariant(const lang::SerialProgram &P, const char *Lit,
                            int64_t Value) {
  std::vector<std::string> Toks = tokens(serve::printProgramText(P));
  for (size_t I = 0; I != Toks.size(); ++I) {
    if (I > 0 && Toks[I - 1] == "name")
      Toks[I] = P.Name + "_c" + std::to_string(Value);
    else if (Toks[I] == Lit)
      Toks[I] = std::to_string(Value);
  }
  return join(Toks, nullptr);
}

lang::SerialProgram parseOrThrow(const std::string &Text) {
  lang::SerialProgram P;
  std::string Err;
  if (!serve::parseProgramText(Text, &P, &Err))
    throw std::runtime_error("benchmark built an unparsable program: " + Err);
  return P;
}

/// Does \p PlanText, parsed against \p Text's program, fold a seeded
/// input exactly like lang::runSerial? Loop-VM tier: no jit compile.
bool planFoldsCorrectly(const std::string &Text, const std::string &PlanText,
                        uint64_t Seed) {
  lang::SerialProgram P = parseOrThrow(Text);
  synth::ParallelPlan Plan;
  std::string Err;
  if (!serve::parsePlanText(PlanText, P, &Plan, &Err))
    return false;
  runtime::CompiledPlan CP(P, Plan, /*AllowSpecialize=*/false,
                           /*AllowNative=*/false);
  std::vector<int64_t> Data = runtime::generateWorkload(P, CheckN, Seed);
  std::vector<runtime::SegmentView> Segs = runtime::partition(Data, 8);
  std::vector<runtime::WorkerOutput> Outs;
  for (const runtime::SegmentView &S : Segs)
    Outs.push_back(CP.runWorker(S));
  return CP.merge(Outs, Segs) == lang::runSerial(P, Data);
}

/// The forked server; stopping it (SIGTERM drain, then SIGKILL) reaps it.
class ServerProc {
public:
  ServerProc(const std::string &Socket, const std::string &CacheDir) {
    Pid = ::fork();
    if (Pid < 0)
      throw std::runtime_error("fork failed");
    if (Pid != 0)
      return;
    serve::ServerOptions SO;
    SO.SocketPath = Socket;
    SO.CacheDir = CacheDir;
    SO.PoolSize = PoolSize;
    SO.Root = installSignalSource();
    SO.Drain = installDrainSignalSource();
    serve::ServeServer Server;
    std::string Err;
    if (!Server.init(SO, &Err)) {
      std::fprintf(stderr, "perfbench: server init failed: %s\n",
                   Err.c_str());
      std::fflush(nullptr);
      ::_exit(9);
    }
    int Rc = Server.run();
    std::fflush(nullptr);
    ::_exit(Rc);
  }
  ~ServerProc() {
    ::kill(Pid, SIGTERM);
    Deadline Until = Deadline::after(10.0);
    int St = 0;
    pid_t Rc;
    while ((Rc = ::waitpid(Pid, &St, WNOHANG)) == 0 && !Until.expired())
      ::usleep(2000);
    if (Rc == 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &St, 0);
    }
  }
  ServerProc(const ServerProc &) = delete;
  ServerProc &operator=(const ServerProc &) = delete;

private:
  pid_t Pid = -1;
};

struct HitProgram {
  const lang::SerialProgram *Prog = nullptr;
  std::string Tier; ///< expected execution tier of its runs.
  std::vector<std::string> Texts;     ///< [variant]
  std::vector<std::string> PlanTexts; ///< [variant] first reply's plan.
  std::vector<std::vector<int64_t>> Inputs; ///< [input]
  std::vector<int64_t> Refs;                ///< [input]
};

struct Service {
  std::string Socket;
  std::unique_ptr<ServerProc> Server;
};

Service setUp(const RunOptions &O, unsigned Rep) {
  std::string Tag = "serve" + std::to_string(Rep);
  std::filesystem::create_directories(Tag);
  useFreshJitCache(O.JitCacheRoot + "/" + Tag);
  Service S;
  // Relative path: a checkout's absolute path may not fit sun_path.
  S.Socket = Tag + "/s.sock";
  S.Server = std::make_unique<ServerProc>(S.Socket, Tag + "/cache");

  std::vector<std::thread> Solvers;
  std::atomic<bool> Ok{true};
  for (const char *Name : HitPrograms)
    Solvers.emplace_back([&, Name] {
      serve::ServeClient C;
      std::string Err;
      serve::ClientReply Reply;
      if (!C.connect(S.Socket, 10.0, &Err) ||
          !C.synth(serve::printProgramText(*lang::findBenchmark(Name)),
                   &Reply) ||
          !Reply.IsOk)
        Ok = false;
    });
  for (std::thread &T : Solvers)
    T.join();
  if (!Ok)
    throw std::runtime_error("set-up could not solve the hit programs");
  return S;
}

struct MissRecord {
  std::string Text;
  std::string PlanText;
  std::string Group;
  std::string Expected;
};

struct Window {
  double Seconds = 0;
  uint64_t Requests = 0; ///< hits + runs.
};

std::map<std::string, uint64_t> statsOf(serve::ServeClient &C, Report &R) {
  serve::ClientReply Reply;
  std::map<std::string, uint64_t> Out;
  bool Ok = C.stats(&Reply) && Reply.IsOk;
  R.check(Ok, "stats request failed");
  if (Ok)
    for (const auto &[K, V] : Reply.Ok.Stats.Counters)
      Out[K] = V;
  return Out;
}

class Mix {
public:
  Mix(const RunOptions &O, const std::string &Socket,
      std::vector<HitProgram> &Hits)
      : O(O), Socket(Socket), Hits(Hits) {}

  /// Runs the three connections for \p Budget seconds (longer if the
  /// miss connection has not finished MinMisses solves).
  Window measure(Report &R, double Budget, unsigned Round);
  std::vector<MissRecord> takeMisses() { return std::move(Misses); }

private:
  void missLoop(Report &R);
  void hitLoop(Report &R, unsigned Conn, unsigned Round);
  bool connect(serve::ServeClient &C, Report &R) {
    std::string Err;
    bool Ok = C.connect(Socket, 10.0, &Err);
    R.check(Ok, "connect: " + Err);
    return Ok;
  }

  const RunOptions &O;
  std::string Socket;
  std::vector<HitProgram> &Hits;
  std::atomic<bool> Stop{false};
  std::atomic<bool> MissDone{false};
  std::atomic<uint64_t> Requests{0};
  std::mutex MissMu;
  std::vector<MissRecord> Misses; // guarded by MissMu
  unsigned NextMiss = 0; // miss thread only
};

void Mix::missLoop(Report &R) {
  Span Loop("bench", "serve_mix.miss connection");
  serve::ServeClient C;
  if (!connect(C, R)) {
    MissDone = true;
    return;
  }
  unsigned Count = 0;
  while (!(Stop && Count >= MinMisses)) {
    size_t B = NextMiss % std::size(MissBases);
    int64_t K = missConstant(MissBases[B], NextMiss / std::size(MissBases));
    ++NextMiss;
    const lang::SerialProgram &Base = *lang::findBenchmark(MissBases[B].Name);
    std::string Text = constantVariant(Base, MissBases[B].Literal, K);

    serve::ClientReply Reply;
    Stopwatch W;
    bool Ok;
    {
      Span Sp("serve", "ServeClient::synth (miss)", Base.Name);
      Ok = C.synth(Text, &Reply);
    }
    double Sec = W.seconds();
    ++Count;
    bool Good = Ok && Reply.IsOk && !Reply.Ok.Synth.CacheHit;
    R.check(Good, "miss " + Text + ": " +
                      (!Ok ? std::string("transport failure")
                           : Reply.IsOk ? std::string("answered from cache")
                                        : Reply.Err.Message));
    if (!Good)
      continue;
    R.sample("serve.miss_s", Sec);
    R.sample("serve.solve_s", Reply.Ok.Synth.SolveSeconds);
    R.sample("serve.miss_wait_s", Sec - Reply.Ok.Synth.SolveSeconds);
    std::lock_guard<std::mutex> L(MissMu);
    Misses.push_back(
        {Text, Reply.Ok.Synth.PlanText, Reply.Ok.Synth.Group,
         Base.ExpectedGroup});
  }
  MissDone = true;
}

void Mix::hitLoop(Report &R, unsigned Conn, unsigned Round) {
  Span Loop("bench", "serve_mix.hit connection");
  serve::ServeClient C;
  if (!connect(C, R))
    return;
  Rng Draw(mix(O.Seed, Conn, Round));
  while (!(Stop && MissDone)) {
    HitProgram &H = Hits[Draw.bounded(Hits.size())];
    const std::string &Name = H.Prog->Name;
    serve::ClientReply Reply;
    // Drawn, not every RunEvery-th request: with a fixed period the two
    // connections' runs fall into step or out of step for a whole run,
    // and the share of hits that queue behind a run (the hit p99) with
    // them.
    if (Draw.chance(1, RunEvery)) {
      size_t In = Draw.bounded(RunInputs);
      size_t V = Draw.bounded(Variants);
      Stopwatch W;
      bool Ok;
      {
        Span Sp("serve", "ServeClient::run", Name);
        Ok = C.run(H.Texts[V], H.Inputs[In], &Reply);
      }
      double Sec = W.seconds();
      bool Good = Ok && Reply.IsOk && Reply.Ok.Run.Output == H.Refs[In] &&
                  Reply.Ok.Run.Tier == H.Tier;
      R.check(Good, "run " + Name + ": " +
                        (!Ok         ? std::string("transport failure")
                         : !Reply.IsOk ? Reply.Err.Message
                                       : "output " +
                                             std::to_string(
                                                 Reply.Ok.Run.Output) +
                                             " on tier " + Reply.Ok.Run.Tier));
      R.sample("serve.run_s", Sec);
    } else {
      size_t V = Draw.bounded(Variants);
      Stopwatch W;
      bool Ok;
      {
        Span Sp("serve", "ServeClient::synth (hit)", Name);
        Ok = C.synth(H.Texts[V], &Reply);
      }
      double Sec = W.seconds();
      bool Good = Ok && Reply.IsOk && Reply.Ok.Synth.CacheHit &&
                  Reply.Ok.Synth.PlanText == H.PlanTexts[V];
      R.check(Good, "hit " + Name + " variant " + std::to_string(V) +
                        ": not the cached plan");
      R.sample("serve.hit_s", Sec);
    }
    ++Requests;
  }
}

Window Mix::measure(Report &R, double Budget, unsigned Round) {
  Stop = false;
  MissDone = false;
  Requests = 0;
  Stopwatch W;
  std::vector<std::thread> Conns;
  Conns.emplace_back([&] { missLoop(R); });
  for (unsigned Conn = 1; Conn <= 2; ++Conn)
    Conns.emplace_back([&, Conn] { hitLoop(R, Conn, Round); });
  while (W.seconds() < Budget)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Stop = true;
  for (std::thread &T : Conns)
    T.join();
  return {W.seconds(), Requests.load()};
}

/// Sends every hit variant once (recording the plan all later hits must
/// return) and builds the run inputs with their references.
std::vector<HitProgram> prime(const RunOptions &O, const Service &S,
                              Report &R) {
  serve::ServeClient C;
  std::string Err;
  if (!C.connect(S.Socket, 10.0, &Err))
    throw std::runtime_error("connect: " + Err);
  std::vector<HitProgram> Hits;
  for (size_t K = 0; K != std::size(HitPrograms); ++K) {
    HitProgram H;
    H.Prog = lang::findBenchmark(HitPrograms[K]);
    const lang::SerialProgram &P = *H.Prog;
    auto Tier = O.Tiers.find(P.Name);
    if (Tier == O.Tiers.end())
      throw std::runtime_error("no expected tier recorded for " + P.Name);
    H.Tier = Tier->second;
    Rng Spell(mix(O.Seed, 0xa1fa, K));
    for (unsigned V = 0; V != Variants; ++V) {
      std::string Text = alphaVariant(P, V, Spell);
      if (serve::canonicalProgramHash(parseOrThrow(Text)) !=
          serve::canonicalProgramHash(P))
        throw std::runtime_error("alpha-variant changed the key of " +
                                 P.Name);
      serve::ClientReply Reply;
      bool Ok = C.synth(Text, &Reply) && Reply.IsOk &&
                Reply.Ok.Synth.CacheHit &&
                Reply.Ok.Synth.Group == P.ExpectedGroup;
      R.check(Ok && planFoldsCorrectly(Text, Reply.Ok.Synth.PlanText,
                                       mix(O.Seed, K, V)),
              "hit " + P.Name + " variant " + std::to_string(V) +
                  ": wrong or uncached plan");
      H.Texts.push_back(Text);
      H.PlanTexts.push_back(Reply.Ok.Synth.PlanText);
    }
    runtime::CompiledProgram Ref(P, /*AllowSpecialize=*/false,
                                 /*AllowNative=*/false);
    for (unsigned I = 0; I != RunInputs; ++I) {
      H.Inputs.push_back(
          runtime::generateWorkload(P, RunN, mix(O.Seed, K, 100 + I)));
      H.Refs.push_back(Ref.runSerial({{H.Inputs.back().data(), RunN}}));
    }
    Hits.push_back(std::move(H));
  }
  return Hits;
}

} // namespace

void runServeMix(const RunOptions &O, Report &R) {
  Service S;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    S.Server.reset(); // stop the previous set-up's server first.
    Stopwatch W;
    S = setUp(O, Rep);
    R.sample("setup_s", W.seconds());
  }
  std::vector<HitProgram> Hits = prime(O, S, R);

  Mix M(O, S.Socket, Hits);
  unsigned Round = 0;
  measurePhases(O, R, [&](Report &Into, double Budget) {
    serve::ServeClient C;
    std::string Err;
    if (!C.connect(S.Socket, 10.0, &Err))
      throw std::runtime_error("connect: " + Err);
    std::map<std::string, uint64_t> Before = statsOf(C, Into);
    Window Wd = M.measure(Into, Budget, Round++);
    std::map<std::string, uint64_t> After = statsOf(C, Into);
    auto delta = [&](const char *Key) {
      return static_cast<double>(After[Key] - Before[Key]);
    };
    double Hit = delta("cache.hits"), Miss = delta("cache.misses");
    Into.set("serve.hit_ratio", Hit + Miss > 0 ? Hit / (Hit + Miss) : 0);
    Into.set("serve.coalesced", delta("synth.coalesced"));
    Into.set("serve.shed", delta("shed.overloaded") +
                               delta("shed.shutting-down") +
                               delta("shed.quarantined"));
    Into.set("serve.solver_respawns", delta("pool.respawns"));
    Into.set("serve.window_s", Wd.Seconds);
    Into.set("serve.requests", static_cast<double>(Wd.Requests));
    return Wd.Seconds / static_cast<double>(std::max<uint64_t>(1, Wd.Requests));
  });

  // Misses are validated here, outside the timed window.
  for (const MissRecord &Mr : M.takeMisses())
    R.check(Mr.Group == Mr.Expected &&
                planFoldsCorrectly(Mr.Text, Mr.PlanText, O.Seed),
            "miss " + Mr.Text + ": plan of group " + Mr.Group +
                " does not fold like the program");
}

} // namespace perfbench
