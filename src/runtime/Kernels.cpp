//===- runtime/Kernels.cpp -------------------------------------------------=//

#include "runtime/Kernels.h"

#include "lang/Interp.h"
#include "runtime/DistinctSet.h"
#include "runtime/SegmentSource.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace grassp {
namespace runtime {

namespace {

std::vector<std::string> fieldNames(const lang::SerialProgram &Prog,
                                    bool WithInput) {
  std::vector<std::string> Names;
  for (const lang::Field &F : Prog.State.fields())
    Names.push_back(F.Name);
  if (WithInput)
    Names.push_back(lang::inputVarName());
  return Names;
}

/// Per-thread scratch for the fold/output entry points. Grows
/// monotonically and is reused across calls, so a shared CompiledProgram
/// does no per-call heap allocation and stays const-callable from
/// concurrent ThreadPool workers.
int64_t *tlScratch(size_t N) {
  thread_local std::vector<int64_t> S;
  if (S.size() < N)
    S.resize(N);
  return S.data();
}

/// Runs a single-input bytecode function on one element.
int64_t run1(const ir::BytecodeFunction &Fn, int64_t El,
             std::vector<int64_t> &Regs) {
  Regs.resize(Fn.numRegs());
  Regs[0] = El;
  int64_t Out = 0;
  Fn.run(Regs.data(), &Out);
  return Out;
}

} // namespace

const char *execTierName(ExecTier T) {
  switch (T) {
  case ExecTier::Specialized:
    return "specialized";
  case ExecTier::Native:
    return "native";
  case ExecTier::LoopVM:
    return "loop-vm";
  case ExecTier::PerElement:
    return "per-element";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// CompiledProgram
//===----------------------------------------------------------------------===//

CompiledProgram::CompiledProgram(const lang::SerialProgram &Prog,
                                 bool AllowSpecialize, bool AllowNative)
    : Prog(Prog), Bag(Prog.State.hasBag()) {
  if (Bag) {
    assert(Prog.State.size() == 1 && "bag kernels support bag-only state");
    Tier = ExecTier::Specialized; // the native hash-set distinct kernel.
    return;
  }
  StepFn = ir::BytecodeFunction::compile(Prog.Step, fieldNames(Prog, true));
  StepOpt = StepFn.optimized();
  OutputFn = ir::BytecodeFunction::compile({Prog.Output},
                                           fieldNames(Prog, false))
                 .optimized();
  if (AllowSpecialize)
    Spec = specializeStep(Prog);
  // Null when no host compiler, the compile failed, or the jit is
  // disabled; the tier simply doesn't exist then.
  if (AllowNative)
    Native = jit::KernelCache::instance().getOrCompile(StepOpt);
  Tier = Spec     ? ExecTier::Specialized
         : Native ? ExecTier::Native
                  : ExecTier::LoopVM;
}

bool CompiledProgram::tierAvailable(ExecTier T) const {
  if (Bag)
    return T == ExecTier::Specialized;
  switch (T) {
  case ExecTier::Specialized:
    return Spec.has_value();
  case ExecTier::Native:
    return Native != nullptr;
  case ExecTier::LoopVM:
  case ExecTier::PerElement:
    return true;
  }
  return false;
}

std::string CompiledProgram::specializationInfo() const {
  if (Bag)
    return "distinct(hash-set)";
  return Spec ? Spec->describe() : std::string();
}

uint64_t CompiledProgram::bytecodeHash() const {
  return jit::bytecodeHash(StepOpt);
}

std::vector<int64_t> CompiledProgram::initialState() const {
  std::vector<int64_t> St;
  if (Bag)
    return St;
  for (const lang::Field &F : Prog.State.fields())
    St.push_back(F.InitInt);
  return St;
}

void CompiledProgram::foldSegment(std::vector<int64_t> &State,
                                  SegmentView Seg) const {
  foldSegmentTier(Tier, State, Seg);
}

void CompiledProgram::foldSegmentTier(ExecTier T, std::vector<int64_t> &State,
                                      SegmentView Seg) const {
  assert(!Bag && "bag programs use runSerial / the distinct worker");
  assert(tierAvailable(T) && "tier not available for this program");
  switch (T) {
  case ExecTier::Specialized:
    Spec->fold(State.data(), Seg.Data, Seg.Size);
    return;
  case ExecTier::Native:
    Native->fold(State.data(), Seg.Data, Seg.Size);
    return;
  case ExecTier::LoopVM:
    StepOpt.foldLoop(Seg.Data, Seg.Size, State.data(),
                     tlScratch(StepOpt.scratchSize()));
    return;
  case ExecTier::PerElement: {
    size_t NF = State.size();
    int64_t *Regs = tlScratch(StepFn.numRegs());
    for (size_t I = 0; I != Seg.Size; ++I) {
      for (size_t K = 0; K != NF; ++K)
        Regs[K] = State[K];
      Regs[NF] = Seg.Data[I];
      StepFn.run(Regs, State.data());
    }
    return;
  }
  }
}

void CompiledProgram::step(std::vector<int64_t> &State, int64_t El) const {
  SegmentView One{&El, 1};
  foldSegment(State, One);
}

int64_t CompiledProgram::output(const std::vector<int64_t> &State) const {
  assert(!Bag);
  int64_t *Regs = tlScratch(OutputFn.numRegs());
  for (size_t K = 0; K != State.size(); ++K)
    Regs[K] = State[K];
  int64_t Out = 0;
  OutputFn.run(Regs, &Out);
  return Out;
}

int64_t CompiledProgram::runSerial(const std::vector<SegmentView> &Segs) const {
  return runSerialTier(Tier, Segs);
}

int64_t
CompiledProgram::runSerialTier(ExecTier T,
                               const std::vector<SegmentView> &Segs) const {
  assert(tierAvailable(T) && "tier not available for this program");
  if (Bag) {
    DistinctSet Seen;
    for (const SegmentView &S : Segs)
      for (size_t I = 0; I != S.Size; ++I)
        Seen.insert(S.Data[I]);
    return static_cast<int64_t>(Seen.size());
  }
  std::vector<int64_t> St = initialState();
  for (const SegmentView &S : Segs)
    foldSegmentTier(T, St, S);
  return output(St);
}

int64_t CompiledProgram::runSerialSource(const SegmentSource &Src) const {
  return runSerialSourceTier(Tier, Src);
}

int64_t CompiledProgram::runSerialSourceTier(ExecTier T,
                                             const SegmentSource &Src) const {
  assert(tierAvailable(T) && "tier not available for this program");
  std::unique_ptr<SegmentCursor> C = Src.cursor();
  if (Bag) {
    DistinctSet Seen;
    for (size_t I = 0; I != Src.chunkCount(); ++I) {
      SegmentView S = C->chunk(I);
      for (size_t K = 0; K != S.Size; ++K)
        Seen.insert(S.Data[K]);
    }
    return static_cast<int64_t>(Seen.size());
  }
  std::vector<int64_t> St = initialState();
  for (size_t I = 0; I != Src.chunkCount(); ++I)
    foldSegmentTier(T, St, C->chunk(I));
  return output(St);
}

//===----------------------------------------------------------------------===//
// CompiledPlan
//===----------------------------------------------------------------------===//

CompiledPlan::CompiledPlan(const lang::SerialProgram &Prog,
                           const synth::ParallelPlan &Plan,
                           bool AllowSpecialize, bool AllowNative)
    : Plan(Plan), Compiled(Prog, AllowSpecialize, AllowNative) {
  if (Plan.Kind == synth::Scenario::NoPrefix ||
      Plan.Kind == synth::Scenario::ConstPrefix) {
    if (!Plan.Merge.Refold) {
      std::vector<std::string> Names;
      for (const char *Side : {"a_", "b_"})
        for (const lang::Field &F : Prog.State.fields())
          Names.push_back(Side + F.Name);
      MergeFn =
          ir::BytecodeFunction::compile(Plan.Merge.Combine, Names).optimized();
    }
    return;
  }
  const synth::CondPrefixInfo &CP = Plan.Cond;
  std::vector<std::string> InOnly = {lang::inputVarName()};
  PcFn = ir::BytecodeFunction::compile({CP.PrefixCond}, InOnly);
  if (Plan.Kind != synth::Scenario::CondPrefixSummary)
    return;
  CtrlStepFns.resize(CP.numValuations());
  ModeFns.resize(CP.numValuations());
  ArgFns.resize(CP.numValuations());
  for (size_t V = 0; V != CP.numValuations(); ++V) {
    for (const ir::ExprRef &E : CP.CtrlStep[V])
      CtrlStepFns[V].push_back(ir::BytecodeFunction::compile({E}, InOnly));
    for (const ir::ExprRef &E : CP.AccMode[V])
      ModeFns[V].push_back(ir::BytecodeFunction::compile({E}, InOnly));
    for (const ir::ExprRef &E : CP.AccArg[V])
      ArgFns[V].push_back(ir::BytecodeFunction::compile({E}, InOnly));
  }
}

int64_t CompiledPlan::applyFlavor(synth::AccFlavor F, int64_t A,
                                  int64_t B) const {
  switch (F) {
  case synth::AccFlavor::Plus:
    return A + B;
  case synth::AccFlavor::Max:
    return A > B ? A : B;
  case synth::AccFlavor::Min:
    return A < B ? A : B;
  case synth::AccFlavor::And:
    return (A != 0 && B != 0) ? 1 : 0;
  case synth::AccFlavor::Or:
    return (A != 0 || B != 0) ? 1 : 0;
  case synth::AccFlavor::SetLike:
    return B;
  }
  return A;
}

WorkerOutput CompiledPlan::runWorker(SegmentView Seg) const {
  switch (Plan.Kind) {
  case synth::Scenario::NoPrefix:
  case synth::Scenario::ConstPrefix:
    return runScanWorker(Seg);
  case synth::Scenario::CondPrefixRefold:
  case synth::Scenario::CondPrefixSummary:
    return runCondWorker(Seg);
  }
  return {};
}

WorkerOutput CompiledPlan::runScanWorker(SegmentView Seg) const {
  WorkerOutput W;
  W.Elems = Seg.Size;
  if (Compiled.usesBag()) {
    DistinctSet Seen;
    for (size_t I = 0; I != Seg.Size; ++I)
      Seen.insert(Seg.Data[I]);
    // Sorted, so that ⊕ is a linear merge and the summary of a segment
    // does not depend on how it was split.
    W.Distinct = Seen.takeOrder();
    std::sort(W.Distinct.begin(), W.Distinct.end());
    return W;
  }
  W.D = Compiled.initialState();
  Compiled.foldSegment(W.D, Seg);
  if (Plan.Kind == synth::Scenario::ConstPrefix)
    W.Head.assign(Seg.Data,
                  Seg.Data + std::min<size_t>(Plan.PrefixLen, Seg.Size));
  return W;
}

WorkerOutput CompiledPlan::runCondWorker(SegmentView Seg) const {
  const synth::CondPrefixInfo &CP = Plan.Cond;
  bool Summary = Plan.Kind == synth::Scenario::CondPrefixSummary;
  size_t NumV = CP.numValuations();
  size_t NumAcc = CP.AccFields.size();
  size_t NumCtrl = CP.CtrlFields.size();

  WorkerOutput W;
  W.Elems = Seg.Size;
  W.D = Compiled.initialState();
  if (Summary) {
    W.CtrlCur.resize(NumV);
    for (size_t V = 0; V != NumV; ++V)
      W.CtrlCur[V] = static_cast<uint32_t>(V);
    W.ModeArg.assign(NumV, std::vector<std::pair<int64_t, int64_t>>(
                               NumAcc, {0, 0}));
  }

  std::vector<int64_t> Regs;
  std::vector<int64_t> NewCtrl(NumCtrl);
  size_t I = 0;
  for (; I != Seg.Size; ++I) {
    int64_t El = Seg.Data[I];
    if (run1(PcFn, El, Regs) != 0)
      break; // boundary found.
    if (!Summary) {
      W.PrefixData.push_back(El);
      continue;
    }
    for (size_t V = 0; V != NumV; ++V) {
      uint32_t Cur = W.CtrlCur[V];
      // Accumulator transforms use the pre-element valuation.
      for (size_t J = 0; J != NumAcc; ++J) {
        int64_t M2 = run1(ModeFns[Cur][J], El, Regs);
        int64_t A2 = run1(ArgFns[Cur][J], El, Regs);
        composeModeArg(CP.AccFlavors[J], W.ModeArg[V][J], M2, A2);
      }
      for (size_t K = 0; K != NumCtrl; ++K)
        NewCtrl[K] = run1(CtrlStepFns[Cur][K], El, Regs);
      // Map the valuation back to its index; unknown valuations keep the
      // current index (the verifier rules this out for accepted plans).
      for (size_t X = 0; X != NumV; ++X) {
        bool Match = true;
        for (size_t K = 0; K != NumCtrl; ++K)
          Match &= (CP.CtrlValues[X][K] == NewCtrl[K]);
        if (Match) {
          W.CtrlCur[V] = static_cast<uint32_t>(X);
          break;
        }
      }
    }
  }
  if (I != Seg.Size) {
    W.Found = true;
    W.Boundary = Seg.Data[I];
    Compiled.foldSegment(W.D, {Seg.Data + I, Seg.Size - I});
  }
  return W;
}

void CompiledPlan::composeModeArg(synth::AccFlavor F,
                                  std::pair<int64_t, int64_t> &MA, int64_t M2,
                                  int64_t A2) const {
  auto &[M1, A1] = MA;
  if (M2 == 1) {
    M1 = 1;
    A1 = A2;
  } else if (M2 == 2) {
    if (M1 == 0) {
      M1 = 2;
      A1 = A2;
    } else {
      A1 = applyFlavor(F, A1, A2);
    }
  } // any other mode: identity, nothing to do.
}

void CompiledPlan::applyUpd(std::vector<int64_t> &C,
                            const WorkerOutput &W) const {
  const synth::CondPrefixInfo &CP = Plan.Cond;
  // Find C's control valuation.
  size_t Idx = CP.numValuations();
  for (size_t V = 0; V != CP.numValuations(); ++V) {
    bool Match = true;
    for (size_t K = 0; K != CP.CtrlFields.size(); ++K)
      Match &= (C[CP.CtrlFields[K]] == CP.CtrlValues[V][K]);
    if (Match) {
      Idx = V;
      break;
    }
  }
  if (Idx == CP.numValuations())
    return; // unreachable for verified plans.
  const std::vector<int64_t> &End = CP.CtrlValues[W.CtrlCur[Idx]];
  for (size_t K = 0; K != CP.CtrlFields.size(); ++K)
    C[CP.CtrlFields[K]] = End[K];
  for (size_t J = 0; J != CP.AccFields.size(); ++J) {
    auto [M, A] = W.ModeArg[Idx][J];
    int64_t &Cur = C[CP.AccFields[J]];
    if (M == 1)
      Cur = A;
    else if (M == 2)
      Cur = applyFlavor(CP.AccFlavors[J], Cur, A);
  }
}

void CompiledPlan::combineAtBoundary(std::vector<int64_t> &C,
                                     const WorkerOutput &W) const {
  const synth::CondPrefixInfo &CP = Plan.Cond;
  std::vector<int64_t> T = C;
  Compiled.step(T, W.Boundary);
  std::vector<int64_t> W0 = Compiled.initialState();
  Compiled.step(W0, W.Boundary);

  C = W.D; // control fields and SetLike accumulators.
  for (size_t J = 0; J != CP.AccFields.size(); ++J) {
    size_t F = CP.AccFields[J];
    switch (CP.AccFlavors[J]) {
    case synth::AccFlavor::Plus:
      C[F] = T[F] + (W.D[F] - W0[F]);
      break;
    case synth::AccFlavor::Max:
      C[F] = std::max(T[F], W.D[F]);
      break;
    case synth::AccFlavor::Min:
      C[F] = std::min(T[F], W.D[F]);
      break;
    case synth::AccFlavor::And:
      C[F] = (T[F] != 0 && (W0[F] == 0 || W.D[F] != 0)) ? 1 : 0;
      break;
    case synth::AccFlavor::Or:
      C[F] = (T[F] != 0 || (W.D[F] != 0 && W0[F] == 0)) ? 1 : 0;
      break;
    case synth::AccFlavor::SetLike:
      break; // already W.D[F].
    }
  }
}

void CompiledPlan::mergeStates(std::vector<int64_t> &A,
                               const std::vector<int64_t> &B) const {
  int64_t *Regs = tlScratch(MergeFn.numRegs());
  std::copy(A.begin(), A.end(), Regs);
  std::copy(B.begin(), B.end(), Regs + A.size());
  MergeFn.run(Regs, A.data());
}

void CompiledPlan::merge1(std::vector<int64_t> &C,
                          const WorkerOutput &W) const {
  if (Plan.Kind == synth::Scenario::CondPrefixSummary)
    applyUpd(C, W);
  else if (!W.PrefixData.empty())
    Compiled.foldSegment(C, {W.PrefixData.data(), W.PrefixData.size()});
  if (W.Found)
    combineAtBoundary(C, W);
}

void CompiledPlan::combine(WorkerOutput &A, const WorkerOutput &B) const {
  if (B.Elems == 0)
    return;
  if (A.Elems == 0) {
    A = B;
    return;
  }
  A.Elems += B.Elems;
  switch (Plan.Kind) {
  case synth::Scenario::NoPrefix:
  case synth::Scenario::ConstPrefix:
    if (Plan.Merge.Refold) {
      std::vector<int64_t> Union;
      Union.reserve(A.Distinct.size() + B.Distinct.size());
      std::set_union(A.Distinct.begin(), A.Distinct.end(),
                     B.Distinct.begin(), B.Distinct.end(),
                     std::back_inserter(Union));
      A.Distinct = std::move(Union);
    } else if (Plan.Kind == synth::Scenario::NoPrefix) {
      mergeStates(A.D, B.D);
    } else {
      // Repair A's last state with the head of the segment after it,
      // B's first; B's last state waits for a right neighbour of its own.
      if (!B.Head.empty())
        Compiled.foldSegment(A.D, {B.Head.data(), B.Head.size()});
      if (A.Merged.empty())
        A.Merged = std::move(A.D);
      else
        mergeStates(A.Merged, A.D);
      if (!B.Merged.empty())
        mergeStates(A.Merged, B.Merged);
      A.D = B.D;
    }
    return;
  case synth::Scenario::CondPrefixRefold:
  case synth::Scenario::CondPrefixSummary:
    if (A.Found) {
      // A's boundary stays the first one; B's elements fold into the
      // serial state A.D.
      merge1(A.D, B);
      return;
    }
    // A is all prefix: B's boundary and suffix, and the prefix of A
    // followed by B's.
    A.Found = B.Found;
    A.Boundary = B.Boundary;
    A.D = B.D;
    if (Plan.Kind == synth::Scenario::CondPrefixRefold) {
      A.PrefixData.insert(A.PrefixData.end(), B.PrefixData.begin(),
                          B.PrefixData.end());
      return;
    }
    for (size_t V = 0; V != A.CtrlCur.size(); ++V) {
      uint32_t Mid = A.CtrlCur[V];
      for (size_t J = 0; J != A.ModeArg[V].size(); ++J)
        composeModeArg(Plan.Cond.AccFlavors[J], A.ModeArg[V][J],
                       B.ModeArg[Mid][J].first, B.ModeArg[Mid][J].second);
      A.CtrlCur[V] = B.CtrlCur[Mid];
    }
    return;
  }
}

int64_t CompiledPlan::finish(const WorkerOutput &S) const {
  switch (Plan.Kind) {
  case synth::Scenario::NoPrefix:
  case synth::Scenario::ConstPrefix: {
    if (Plan.Merge.Refold)
      return static_cast<int64_t>(S.Distinct.size());
    if (S.Elems == 0)
      return Compiled.output(Compiled.initialState());
    if (S.Merged.empty())
      return Compiled.output(S.D);
    // The last state is never repaired: nothing follows it.
    std::vector<int64_t> Acc = S.Merged;
    mergeStates(Acc, S.D);
    return Compiled.output(Acc);
  }
  case synth::Scenario::CondPrefixRefold:
  case synth::Scenario::CondPrefixSummary: {
    std::vector<int64_t> C = Compiled.initialState();
    if (S.Elems != 0)
      merge1(C, S);
    return Compiled.output(C);
  }
  }
  return 0;
}

int64_t CompiledPlan::merge(const std::vector<WorkerOutput> &Workers) const {
  WorkerOutput Acc;
  for (const WorkerOutput &W : Workers)
    combine(Acc, W);
  return finish(Acc);
}

int64_t CompiledPlan::merge(const std::vector<WorkerOutput> &Workers,
                            const std::vector<SegmentView> &Segs) const {
  assert(Workers.size() == Segs.size() && "one worker output per segment");
  (void)Segs;
  return merge(Workers);
}

} // namespace runtime
} // namespace grassp
