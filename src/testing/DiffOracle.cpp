//===- testing/DiffOracle.cpp ---------------------------------------------==//

#include "testing/DiffOracle.h"

#include "codegen/CppCodegen.h"
#include "jit/NativeKernel.h"
#include "lang/Interp.h"
#include "runtime/MergeTree.h"
#include "runtime/Runner.h"
#include "runtime/SegmentSource.h"
#include "runtime/Workload.h"
#include "support/ChildProc.h"
#include "support/Random.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#ifdef _WIN32
#else
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace grassp {
namespace testing {

namespace {

std::unique_ptr<dist::DistCoordinator>
makePrewarmedCoordinator(const runtime::CompiledPlan &Plan,
                         const dist::DistConfig &Cfg) {
  auto C = std::make_unique<dist::DistCoordinator>(Plan, Cfg);
  C->prewarm();
  return C;
}

/// The summary of Workers[Lo, Hi) by ⊕ over a random binary tree.
runtime::WorkerOutput foldRandomTree(const runtime::CompiledPlan &Plan,
                                     const std::vector<runtime::WorkerOutput> &W,
                                     size_t Lo, size_t Hi, Rng &R) {
  if (Hi - Lo <= 1)
    return Lo == Hi ? runtime::WorkerOutput() : W[Lo];
  size_t Mid = Lo + 1 + static_cast<size_t>(R.next() % (Hi - Lo - 1));
  runtime::WorkerOutput Left = foldRandomTree(Plan, W, Lo, Mid, R);
  Plan.combine(Left, foldRandomTree(Plan, W, Mid, Hi, R));
  return Left;
}

} // namespace

bool DiffOracle::hostCompilerAvailable() {
  // One probe for the whole process (shared with the native jit tier):
  // $CXX when set, g++ otherwise.
  return jit::hostCompilerAvailable();
}

DiffOracle::DiffOracle(const lang::SerialProgram &P,
                       const synth::ParallelPlan &PlanIn,
                       const OracleConfig &Cfg)
    : Prog(P), Plan(PlanIn), Compiled(P), CompiledPlanImpl(P, Plan),
      // Coordinator (with its worker pool prewarmed) strictly before
      // Pool in member order: the initial forks happen while this
      // process is still single-threaded.
      DistCoord(Cfg.UseDist
                    ? makePrewarmedCoordinator(CompiledPlanImpl, Cfg.Dist)
                    : nullptr),
      Pool(Cfg.Threads ? Cfg.Threads : 1), Policy(Cfg.Policy) {
  if (!Cfg.UseEmitted || !hostCompilerAvailable())
    return;
  codegen::CppEmitOptions EOpts;
  EOpts.NumThreads = Cfg.Threads ? Cfg.Threads : 1;
  EOpts.NumElements = 1024; // overridden by the file-input hook anyway.
  std::string Src = codegen::emitStandaloneCpp(Prog, Plan, EOpts);
  if (Src.empty())
    return; // no translation for this plan (e.g. CondPrefixRefold).

  // Scratch under $TMPDIR (fallback /tmp) — sandboxed CI jobs point
  // TMPDIR somewhere writable and nothing here may hardcode /tmp.
  std::string Template = jit::tempRootDir() + "/grassp_oracle_XXXXXX";
  char *Dir = mkdtemp(&Template[0]);
  if (!Dir)
    return;
  TmpDir = Dir;
  try {
    std::string SrcPath = TmpDir + "/gen.cpp";
    BinPath = TmpDir + "/gen";
    {
      std::ofstream Out(SrcPath);
      Out << Src;
    }
    // Quoted paths and $CXX: an oracle temp dir with shell
    // metacharacters must not silently change the command.
    std::string Compile = jit::shellQuote(jit::hostCxx()) +
                          " -std=c++17 -O1 -o " + jit::shellQuote(BinPath) +
                          " " + jit::shellQuote(SrcPath) + " -lpthread > " +
                          jit::shellQuote(TmpDir + "/cc.log") + " 2>&1";
    int Rc = std::system(Compile.c_str());
    EmittedReady = waitStatusOk(Rc);
    if (!EmittedReady) {
      // The probe said a compiler exists, so a failing compile here is a
      // real defect (a bad translation, a crashed compiler) that check()
      // must surface as a divergence, not quietly run one path short.
      EmittedBroken = true;
      EmittedError = "emitted compile failed (" +
                     describeWaitStatus(Rc) + ")";
      std::ifstream Log(TmpDir + "/cc.log");
      std::string Line, Last;
      while (std::getline(Log, Line))
        if (!Line.empty())
          Last = Line;
      if (!Last.empty())
        EmittedError += ": " + Last;
      // The compile log is folded into EmittedError above, so the
      // scratch dir has nothing left to say — remove it now rather
      // than holding a dead dir for the oracle's whole lifetime.
      removeScratch();
    }
  } catch (...) {
    // A throwing constructor never runs the destructor: the failure
    // and cancellation paths must clean the scratch dir themselves.
    removeScratch();
    throw;
  }
}

void DiffOracle::removeScratch() {
  if (TmpDir.empty())
    return;
  // Best-effort cleanup of the fixed file set; the dir itself last.
  for (const char *F : {"/gen.cpp", "/gen", "/cc.log", "/in.txt", "/out.txt"})
    std::remove((TmpDir + F).c_str());
  rmdir(TmpDir.c_str());
  TmpDir.clear();
  EmittedReady = false;
}

DiffOracle::~DiffOracle() { removeScratch(); }

bool DiffOracle::runEmitted(const std::vector<int64_t> &Flat,
                            int64_t *SerialOut, int64_t *ParallelOut,
                            std::string *Error) {
  std::string InPath = TmpDir + "/in.txt";
  std::string OutPath = TmpDir + "/out.txt";
  {
    // Headered form: the emitted parser verifies the count, so a
    // truncated write surfaces as a parse error, not a wrong answer.
    std::ofstream In(InPath);
    In << runtime::workloadFileHeader(Flat.size()) << '\n';
    for (int64_t V : Flat)
      In << V << '\n';
  }
  std::string Cmd = jit::shellQuote(BinPath) + " " +
                    jit::shellQuote(InPath) + " > " +
                    jit::shellQuote(OutPath) + " 2>&1";
  int Rc = std::system(Cmd.c_str());
  // Decode the wait status first: a binary that never ran or died on a
  // signal produced no verdict at all, which is an oracle failure — not
  // a silent agreement.
  if (Rc == -1 || (!WIFEXITED(Rc) && !WIFSIGNALED(Rc))) {
    if (Error)
      *Error = "emitted binary did not run (" +
               describeWaitStatus(Rc) + ")";
    return false;
  }
  if (WIFSIGNALED(Rc)) {
    if (Error)
      *Error = "emitted binary " + describeWaitStatus(Rc);
    return false;
  }
  std::ifstream Out(OutPath);
  std::string Line;
  std::getline(Out, Line);
  long long S = 0, Par = 0;
  if (std::sscanf(Line.c_str(), "serial=%lld parallel=%lld", &S, &Par) !=
      2) {
    if (Error)
      *Error = "unparsable output (" + describeWaitStatus(Rc) +
               "): \"" + Line + "\"";
    return false;
  }
  *SerialOut = S;
  *ParallelOut = Par;
  // A nonzero *exit* is fine here: it means the binary's own self-check
  // already saw the serial/parallel mismatch, and the parsed values
  // carry the detail to the divergence report.
  return true;
}

OracleVerdict DiffOracle::check(const SegmentedInput &Segs) {
  ++Checks;
  std::vector<int64_t> Flat;
  std::vector<size_t> Lens;
  Lens.reserve(Segs.size());
  for (const std::vector<int64_t> &S : Segs) {
    Flat.insert(Flat.end(), S.begin(), S.end());
    Lens.push_back(S.size());
  }

  OracleVerdict V;
  V.Expected = lang::runSerial(Prog, Flat);

  std::vector<runtime::SegmentView> Views =
      runtime::segmentsFromLengths(Flat, Lens);
  // One value per available execution tier; each is its own path.
  struct TierRun {
    runtime::ExecTier T;
    const char *Name;
    bool Active = false;
    int64_t Value = 0;
  };
  TierRun Tiers[] = {{runtime::ExecTier::PerElement, "vm"},
                     {runtime::ExecTier::LoopVM, "loop-vm"},
                     {runtime::ExecTier::Native, "native"},
                     {runtime::ExecTier::Specialized, "fused"}};
  for (TierRun &R : Tiers) {
    if (!Compiled.tierAvailable(R.T))
      continue;
    R.Active = true;
    R.Value = Compiled.runSerialTier(R.T, Views);
  }
  runtime::ParallelRunResult PR =
      runtime::runParallel(CompiledPlanImpl, Views, &Pool, Policy);
  if (PR.Cancelled)
    return V; // cut mid-run: no parallel output exists, so no verdict.
  int64_t Par = PR.Output;
  Faults += PR;

  // The segment summaries joined by ⊕ in a random bracketing: the pool,
  // dist and MergeTree paths each fix one shape, and ⊕ must not care.
  std::vector<runtime::WorkerOutput> Summaries;
  for (const runtime::SegmentView &S : Views)
    Summaries.push_back(CompiledPlanImpl.runWorker(S));
  Rng TreeShape(Checks);
  int64_t TreeFold = CompiledPlanImpl.finish(
      foldRandomTree(CompiledPlanImpl, Summaries, 0, Summaries.size(),
                     TreeShape));

  // Out-of-core + streaming paths: the same workload through a
  // VectorSource (source-backed runParallel) and through the MergeTree
  // (append one chunk at a time, query the root). Chunk geometry is
  // deliberately different from the segment shape, so chunk/segment
  // boundary mismatches are exercised on every fuzzed workload.
  bool SourceActive = !Flat.empty();
  int64_t SourceVal = 0, TreeVal = 0;
  if (SourceActive) {
    runtime::SourceOptions SOpts;
    SOpts.ChunkElems = std::max<size_t>(1, Flat.size() / 7);
    SOpts.MinChunks = 3;
    runtime::VectorSource Src(Flat, SOpts);
    runtime::ParallelRunResult SR =
        runtime::runParallel(CompiledPlanImpl, Src, &Pool, Policy);
    if (SR.Cancelled)
      return V;
    SourceVal = SR.Output;
    Faults += SR;
    runtime::MergeTree Tree(CompiledPlanImpl);
    std::unique_ptr<runtime::SegmentCursor> C = Src.cursor();
    for (size_t I = 0; I != Src.chunkCount(); ++I)
      Tree.append(C->chunk(I));
    TreeVal = Tree.query();
  }

  // The multi-process path: real forked workers, real sockets, and —
  // when the dist.* fault sites are armed — real kills mid-fold. The
  // coordinator recovers however it must (reassignment, backups, serial
  // refold); the answer still has to match the interpreter exactly.
  bool DistOn = DistCoord != nullptr;
  int64_t DistVal = 0;
  if (DistOn) {
    dist::DistRunReport DR = DistCoord->run(Views);
    if (DR.Cancelled)
      return V;
    DistVal = DR.Output;
    DistSt += DR;
  }

  bool EmittedOk = true;
  int64_t EmSerial = 0, EmParallel = 0;
  std::string EmittedFailure;
  if (EmittedBroken) {
    // The translation exists but would not compile: a defect, not an
    // absent path.
    EmittedOk = false;
    EmittedFailure = EmittedError;
  } else if (EmittedReady) {
    EmittedOk = runEmitted(Flat, &EmSerial, &EmParallel, &EmittedFailure);
  }

  bool Agree = Par == V.Expected && TreeFold == V.Expected &&
               !EmittedBroken &&
               (!EmittedReady ||
                (EmittedOk && EmSerial == V.Expected &&
                 EmParallel == V.Expected));
  for (const TierRun &R : Tiers)
    Agree &= !R.Active || R.Value == V.Expected;
  Agree &= !SourceActive ||
           (SourceVal == V.Expected && TreeVal == V.Expected);
  Agree &= !DistOn || DistVal == V.Expected;
  if (Agree)
    return V;

  V.Diverged = true;
  std::ostringstream D;
  D << "interp=" << V.Expected;
  for (const TierRun &R : Tiers)
    if (R.Active)
      D << ' ' << R.Name << '=' << R.Value;
  D << " plan+pool=" << Par << " summary-tree=" << TreeFold;
  if (SourceActive)
    D << " source+pool=" << SourceVal << " merge-tree=" << TreeVal;
  if (DistOn)
    D << " dist=" << DistVal;
  if (EmittedReady || EmittedBroken) {
    if (EmittedOk)
      D << " emitted-serial=" << EmSerial << " emitted-parallel="
        << EmParallel;
    else
      D << " emitted=<" << EmittedFailure << ">";
  }
  V.Detail = D.str();
  return V;
}

SegmentedInput DiffOracle::minimize(SegmentedInput Segs, unsigned MaxChecks) {
  unsigned Budget = MaxChecks;
  auto stillDiverges = [&](const SegmentedInput &Cand) {
    if (Budget == 0)
      return false;
    --Budget;
    return check(Cand).Diverged;
  };

  bool Progress = true;
  while (Progress && Budget != 0) {
    Progress = false;

    // Drop whole segments.
    for (size_t I = 0; I < Segs.size() && Segs.size() > 1;) {
      SegmentedInput Cand = Segs;
      Cand.erase(Cand.begin() + I);
      if (stillDiverges(Cand)) {
        Segs = std::move(Cand);
        Progress = true;
      } else {
        ++I;
      }
    }

    // Bisection-shrink each segment: drop its first or second half.
    for (size_t I = 0; I < Segs.size(); ++I) {
      while (Segs[I].size() > 1 && Budget != 0) {
        size_t Half = Segs[I].size() / 2;
        SegmentedInput Front = Segs;
        Front[I].erase(Front[I].begin(), Front[I].begin() + Half);
        if (stillDiverges(Front)) {
          Segs = std::move(Front);
          Progress = true;
          continue;
        }
        SegmentedInput Back = Segs;
        Back[I].erase(Back[I].begin() + Half, Back[I].end());
        if (stillDiverges(Back)) {
          Segs = std::move(Back);
          Progress = true;
          continue;
        }
        break;
      }
    }

    // Drop single elements.
    for (size_t I = 0; I < Segs.size(); ++I) {
      for (size_t J = 0; J < Segs[I].size() && Budget != 0;) {
        SegmentedInput Cand = Segs;
        Cand[I].erase(Cand[I].begin() + J);
        if (stillDiverges(Cand)) {
          Segs = std::move(Cand);
          Progress = true;
        } else {
          ++J;
        }
      }
    }
  }
  return Segs;
}

std::string DiffOracle::formatInput(const SegmentedInput &Segs) {
  std::ostringstream OS;
  OS << Segs.size() << " segment" << (Segs.size() == 1 ? "" : "s") << " [";
  for (size_t I = 0; I != Segs.size(); ++I) {
    if (I)
      OS << " |";
    for (int64_t V : Segs[I])
      OS << ' ' << V;
    if (Segs[I].empty())
      OS << ' ';
  }
  OS << " ]";
  return OS.str();
}

} // namespace testing
} // namespace grassp
