//===- runtime/Kernels.cpp -------------------------------------------------=//

#include "runtime/Kernels.h"

#include "lang/Interp.h"
#include "runtime/DistinctSet.h"
#include "runtime/SegmentSource.h"
#include "synth/PlanEval.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <iterator>
#include <stdexcept>

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

/// Runs \p Fn on the concatenation of \p Ins (thread-local scratch) and
/// writes its outputs to \p Out, which may alias an input. Throws
/// std::invalid_argument when the inputs do not fill Fn's input slots
/// exactly (a summary of another plan's shape).
void runOn(const ir::BytecodeFunction &Fn,
           std::initializer_list<SegmentView> Ins, int64_t *Out) {
  size_t N = 0;
  for (SegmentView In : Ins)
    N += In.Size;
  if (N != Fn.numInputs())
    throw std::invalid_argument("segment summary does not match the plan");
  int64_t *Regs = tlScratch(Fn.numRegs());
  int64_t *Slot = Regs;
  for (SegmentView In : Ins)
    Slot = std::copy(In.Data, In.Data + In.Size, Slot);
  Fn.run(Regs, Out);
}

SegmentView view(const std::vector<int64_t> &V) {
  return {V.data(), V.size()};
}

using SymState = lang::StateVec<ir::SymbolicPolicy>;

/// Compiles \p Roots, optimized, over the variables of \p Inputs in
/// order.
ir::BytecodeFunction
compileOver(const std::vector<ir::ExprRef> &Roots,
            std::initializer_list<std::vector<ir::ExprRef>> Inputs) {
  std::vector<std::string> Names;
  for (const std::vector<ir::ExprRef> &Vars : Inputs)
    for (const ir::ExprRef &V : Vars)
      Names.push_back(V->varName());
  return ir::BytecodeFunction::compile(Roots, Names).optimized();
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
    if (!Plan.Merge.Refold)
      MergeFn = compileOver(Plan.Merge.Combine,
                            {lang::scalarTerms(lang::freshState(Prog, "a_")),
                             lang::scalarTerms(lang::freshState(Prog, "b_"))});
    return;
  }
  // Cond-prefix plans: every function is PlanExecutor's own terms, built
  // over variables and compiled.
  ir::SymbolicPolicy P;
  synth::PlanExecutor<ir::SymbolicPolicy> Exec(Prog, Plan, P);
  synth::SummaryLayout Slots(Prog, Plan);
  ir::ExprRef In = ir::var(lang::inputVarName(), ir::TypeKind::Int);

  // The worker's prefix step: stepWorker before any boundary (Found is
  // false), tables as variables; its last output, Found after the step,
  // is prefix_cond(in) and stops the fold.
  synth::WorkerResult<ir::SymbolicPolicy> W = Exec.runWorker({});
  Slots.unflatten(Slots.vars(), W);
  Exec.stepWorker(W, In);
  std::vector<ir::ExprRef> Roots = Slots.flatten(W);
  Roots.push_back(W.Found);
  PrefixFn = compileOver(Roots, {Slots.vars(), {In}});

  SymState C = lang::freshState(Prog, ""), D = lang::freshState(Prog, "w_d_");
  BoundaryFn = compileOver(lang::scalarTerms(Exec.crossBoundary(C, In, D)),
                           {lang::scalarTerms(C), lang::scalarTerms(D), {In}});

  ir::ConcretePolicy CPol;
  synth::PlanExecutor<ir::ConcretePolicy> Conc(Prog, Plan, CPol);
  InitTables = Slots.flatten(Conc.runWorker({}));
  if (Plan.Kind != synth::Scenario::CondPrefixSummary)
    return;

  UpdFn = compileOver(synth::materializeUpdExprs(Prog, Plan),
                      {lang::scalarTerms(C), Slots.vars()});
  synth::SummaryLayout SlotsA(Prog, Plan, "a_"), SlotsB(Prog, Plan, "b_");
  synth::WorkerResult<ir::SymbolicPolicy> A, B;
  SlotsA.unflatten(SlotsA.vars(), A);
  SlotsB.unflatten(SlotsB.vars(), B);
  Exec.composeTables(A, B);
  ComposeFn = compileOver(SlotsA.flatten(A), {SlotsA.vars(), SlotsB.vars()});
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
  WorkerOutput W;
  W.Elems = Seg.Size;
  W.D = Compiled.initialState();
  W.Tables = InitTables;
  size_t I = PrefixFn.foldLoopUntil(Seg.Data, Seg.Size, W.Tables.data(),
                                    tlScratch(PrefixFn.scratchSize()));
  if (Plan.Kind == synth::Scenario::CondPrefixRefold)
    W.PrefixData.assign(Seg.Data, Seg.Data + I);
  if (I != Seg.Size) {
    W.Found = true;
    W.Boundary = Seg.Data[I];
    Compiled.foldSegment(W.D, {Seg.Data + I, Seg.Size - I});
  }
  return W;
}

void CompiledPlan::mergeStates(std::vector<int64_t> &A,
                               const std::vector<int64_t> &B) const {
  runOn(MergeFn, {view(A), view(B)}, A.data());
}

void CompiledPlan::merge1(std::vector<int64_t> &C,
                          const WorkerOutput &W) const {
  if (Plan.Kind == synth::Scenario::CondPrefixSummary)
    runOn(UpdFn, {view(C), view(W.Tables)}, C.data());
  else if (!W.PrefixData.empty())
    Compiled.foldSegment(C, view(W.PrefixData));
  if (W.Found)
    runOn(BoundaryFn, {view(C), view(W.D), {&W.Boundary, 1}}, C.data());
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
        Compiled.foldSegment(A.D, view(B.Head));
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
    if (Plan.Kind == synth::Scenario::CondPrefixRefold)
      A.PrefixData.insert(A.PrefixData.end(), B.PrefixData.begin(),
                          B.PrefixData.end());
    else
      runOn(ComposeFn, {view(A.Tables), view(B.Tables)}, A.Tables.data());
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

bool CompiledPlan::fitsSegment(const WorkerOutput &W, uint64_t Elems) const {
  const bool Cond = Plan.Kind == synth::Scenario::CondPrefixRefold ||
                    Plan.Kind == synth::Scenario::CondPrefixSummary;
  const bool Bag = !Cond && Compiled.usesBag();
  const size_t Fields = Bag ? 0 : Compiled.initialState().size();
  const size_t HeadLen = Plan.Kind == synth::Scenario::ConstPrefix && !Bag
                             ? std::min<uint64_t>(Plan.PrefixLen, Elems)
                             : 0;
  if (W.Elems != Elems || W.D.size() != Fields || W.Head.size() != HeadLen ||
      !W.Merged.empty() ||
      W.Tables.size() != (Cond ? InitTables.size() : 0) ||
      W.Distinct.size() > (Bag ? Elems : 0))
    return false;
  // A re-folding worker keeps the elements before its boundary.
  if (Plan.Kind == synth::Scenario::CondPrefixRefold)
    return W.Found ? W.PrefixData.size() < Elems
                   : W.PrefixData.size() == Elems;
  return W.PrefixData.empty();
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
