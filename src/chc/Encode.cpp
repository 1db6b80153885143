//===- chc/Encode.cpp ------------------------------------------------------=//

#include "chc/Encode.h"

#include "lang/Interp.h"
#include "synth/PlanEval.h"

#include <cassert>

using namespace grassp::ir;

namespace grassp {
namespace chc {

namespace {

using SymState = lang::StateVec<SymbolicPolicy>;

ExprRef elVar() { return var("el", TypeKind::Int); }
ExprRef sidVar() { return var("s_id", TypeKind::Int); }
ExprRef sidNextVar() { return var("s_id_next", TypeKind::Int); }

/// Initial-value expression for a scalar field.
ExprRef fieldInit(const lang::Field &F) {
  return F.Ty == TypeKind::Bool ? constBool(F.InitInt != 0)
                                : constInt(F.InitInt);
}

/// Declares the serial copy r_<field> and its f-step.
void addSerialVars(const lang::SerialProgram &Prog, ChcSystem &Sys) {
  const lang::StateLayout &L = Prog.State;
  SymbolicPolicy P;
  SymState R;
  for (size_t I = 0; I != L.size(); ++I) {
    const lang::Field &F = L.field(I);
    Sys.Vars.push_back({"r_" + F.Name, F.Ty, fieldInit(F)});
    R.push_back(
        ir::DomainValue<SymbolicPolicy>::scalar(var("r_" + F.Name, F.Ty)));
  }
  SymState RNext = lang::stepState(Prog, R, elVar(), P);
  for (const auto &DV : RNext)
    Sys.Next.push_back(DV.Sc);
}

/// The serial output over the r_* variables.
ExprRef serialOutput(const lang::SerialProgram &Prog) {
  std::map<std::string, ExprRef> Subst;
  for (const lang::Field &F : Prog.State.fields())
    Subst[F.Name] = var("r_" + F.Name, F.Ty);
  return substitute(Prog.Output, Subst);
}

/// Per-segment program-state variables ("s<i>_<field>").
SymState segmentStateVars(const lang::SerialProgram &Prog, unsigned I) {
  return lang::freshState(Prog, "s" + std::to_string(I) + "_");
}

/// Gates field updates: Next = ite(Cond, Stepped, Current).
void addGatedState(ChcSystem &Sys, const lang::SerialProgram &Prog,
                   unsigned I, const SymState &Current,
                   const SymState &Stepped, const ExprRef &Cond) {
  const lang::StateLayout &L = Prog.State;
  for (size_t K = 0; K != L.size(); ++K) {
    const lang::Field &F = L.field(K);
    Sys.Vars.push_back(
        {"s" + std::to_string(I) + "_" + F.Name, F.Ty, fieldInit(F)});
    Sys.Next.push_back(ite(Cond, Stepped[K].Sc, Current[K].Sc));
  }
}

/// The plan's merge output over m symbolic states: PlanExecutor's
/// binary merge, folded left.
ExprRef mergedOutput(const lang::SerialProgram &Prog,
                     const synth::ParallelPlan &Plan, unsigned M) {
  SymbolicPolicy P;
  synth::PlanExecutor<SymbolicPolicy> Exec(Prog, Plan, P);
  SymState Acc = segmentStateVars(Prog, 1);
  for (unsigned I = 2; I <= M; ++I)
    Acc = Exec.applyMerge(Acc, segmentStateVars(Prog, I));
  return lang::outputOf(Prog, Acc, P);
}

} // namespace

std::optional<ChcSystem>
encodeProductAutomaton(const lang::SerialProgram &Prog,
                       const synth::ParallelPlan &Plan,
                       unsigned NumSegments) {
  if (Prog.State.hasBag())
    return std::nullopt; // bag partial states are not first-order scalars.
  unsigned M = NumSegments;
  assert(M >= 2 && "need at least two segments");

  ChcSystem Sys;
  Sys.NumSegments = M;
  SymbolicPolicy P;

  // s_id first: its next value is the nondeterministic choice itself.
  Sys.Vars.push_back({"s_id", TypeKind::Int, constInt(1)});
  Sys.Next.push_back(sidNextVar());
  Sys.TransGuard =
      land(lor(eq(sidNextVar(), sidVar()),
               eq(sidNextVar(), add(sidVar(), constInt(1)))),
           le(sidNextVar(), constInt(M)));
  Sys.QueryGuard = constBool(true);

  addSerialVars(Prog, Sys);
  Sys.SerialOut = serialOutput(Prog);

  switch (Plan.Kind) {
  case synth::Scenario::NoPrefix: {
    for (unsigned I = 1; I <= M; ++I) {
      SymState Cur = segmentStateVars(Prog, I);
      SymState Stepped = lang::stepState(Prog, Cur, elVar(), P);
      addGatedState(Sys, Prog, I, Cur, Stepped,
                    eq(sidNextVar(), constInt(I)));
    }
    Sys.ParallelOut = mergedOutput(Prog, Plan, M);
    break;
  }
  case synth::Scenario::ConstPrefix: {
    // Position of the element within the current segment (1-based).
    ExprRef Pos = var("pos", TypeKind::Int);
    ExprRef PosNext =
        ite(eq(sidNextVar(), sidVar()), add(Pos, constInt(1)), constInt(1));
    Sys.Vars.push_back({"pos", TypeKind::Int, constInt(0)});
    Sys.Next.push_back(PosNext);

    for (unsigned I = 1; I <= M; ++I) {
      SymState Cur = segmentStateVars(Prog, I);
      SymState Stepped = lang::stepState(Prog, Cur, elVar(), P);
      // Segment I advances on its own elements and on the first
      // PrefixLen elements of segment I+1 (the repair).
      ExprRef Own = eq(sidNextVar(), constInt(I));
      ExprRef Repair =
          land(eq(sidNextVar(), constInt(I + 1)),
               le(PosNext, constInt(Plan.PrefixLen)));
      addGatedState(Sys, Prog, I, Cur, Stepped, lor(Own, Repair));
    }
    // Mid-stream equivalence only holds once the previous segment's
    // repair is complete.
    Sys.QueryGuard = lor(eq(sidVar(), constInt(1)),
                         ge(var("pos", TypeKind::Int),
                            constInt(Plan.PrefixLen)));
    Sys.ParallelOut = mergedOutput(Prog, Plan, M);
    break;
  }
  case synth::Scenario::CondPrefixRefold:
    return std::nullopt; // refold workers store unbounded prefixes.
  case synth::Scenario::CondPrefixSummary: {
    synth::PlanExecutor<SymbolicPolicy> Exec(Prog, Plan, P);

    synth::WorkerResult<SymbolicPolicy> W0 = Exec.runWorker({});
    std::vector<synth::WorkerResult<SymbolicPolicy>> Workers;
    for (unsigned I = 1; I <= M; ++I) {
      std::string Pre = "w" + std::to_string(I) + "_";
      synth::WorkerResult<SymbolicPolicy> W;
      W.Found = var(Pre + "found", TypeKind::Bool);
      W.Boundary = var(Pre + "B", TypeKind::Int);
      W.D = lang::freshState(Prog, Pre + "d_");
      synth::SummaryLayout Slots(Prog, Plan, Pre);
      Slots.unflatten(Slots.vars(), W);
      Workers.push_back(W);

      // One worker step produces the gated next-state expressions.
      synth::WorkerResult<SymbolicPolicy> Stepped = W;
      Exec.stepWorker(Stepped, elVar());
      ExprRef Gate = eq(sidNextVar(), constInt(I));

      auto AddVar = [&](const std::string &Name, TypeKind Ty, ExprRef Init,
                        const ExprRef &CurE, const ExprRef &NextE) {
        Sys.Vars.push_back({Name, Ty, std::move(Init)});
        Sys.Next.push_back(ite(Gate, NextE, CurE));
      };
      AddVar(Pre + "found", TypeKind::Bool, constBool(false), W.Found,
             Stepped.Found);
      AddVar(Pre + "B", TypeKind::Int, constInt(0), W.Boundary,
             Stepped.Boundary);
      for (size_t K = 0; K != Prog.State.size(); ++K) {
        const lang::Field &F = Prog.State.field(K);
        AddVar(Pre + "d_" + F.Name, F.Ty, fieldInit(F), W.D[K].Sc,
               Stepped.D[K].Sc);
      }
      // The tables start where runWorker({}) starts them.
      std::vector<ExprRef> Init = Slots.flatten(W0);
      std::vector<ExprRef> Cur = Slots.flatten(W);
      std::vector<ExprRef> Next = Slots.flatten(Stepped);
      for (size_t K = 0; K != Slots.size(); ++K)
        AddVar(Slots.names()[K], Cur[K]->getType(), Init[K], Cur[K],
               Next[K]);
    }
    Sys.ParallelOut = Exec.mergeWorkers(Workers);
    break;
  }
  }
  return Sys;
}

} // namespace chc
} // namespace grassp
