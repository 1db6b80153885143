//===- synth/ParallelPlan.cpp ----------------------------------------------=//

#include "synth/ParallelPlan.h"
#include "synth/PlanEval.h"

#include <sstream>

namespace grassp {
namespace synth {

const char *scenarioName(Scenario S) {
  switch (S) {
  case Scenario::NoPrefix:
    return "no-prefix";
  case Scenario::ConstPrefix:
    return "const-prefix";
  case Scenario::CondPrefixRefold:
    return "cond-prefix-refold";
  case Scenario::CondPrefixSummary:
    return "cond-prefix-summary";
  }
  return "?";
}

const char *accFlavorName(AccFlavor F) {
  switch (F) {
  case AccFlavor::Plus:
    return "+";
  case AccFlavor::Max:
    return "max";
  case AccFlavor::Min:
    return "min";
  case AccFlavor::And:
    return "and";
  case AccFlavor::Or:
    return "or";
  case AccFlavor::SetLike:
    return "set";
  }
  return "?";
}

bool MergeFn::isTrivial() const {
  if (Refold)
    return false;
  for (const ir::ExprRef &E : Combine) {
    if (!E)
      return false;
    // A single operator application over exactly the two sides.
    switch (E->getOp()) {
    case ir::Op::Add:
    case ir::Op::Min:
    case ir::Op::Max:
    case ir::Op::And:
    case ir::Op::Or:
      if (E->operand(0)->isVar() && E->operand(1)->isVar())
        continue;
      return false;
    default:
      return false;
    }
  }
  return true;
}

std::string ParallelPlan::group() const {
  switch (Kind) {
  case Scenario::NoPrefix:
    // The paper calls a merge "trivial" when it reduces single-value
    // partial states with one operator (B1); anything structured —
    // multi-field states, keyed combines, refolds — is B2.
    return (Merge.isTrivial() && Merge.Combine.size() == 1) ? "B1" : "B2";
  case Scenario::ConstPrefix:
    return "B3";
  case Scenario::CondPrefixRefold:
  case Scenario::CondPrefixSummary:
    return "B4";
  }
  return "?";
}

std::string ParallelPlan::describe(const lang::SerialProgram &Prog) const {
  std::ostringstream OS;
  OS << "scenario: " << scenarioName(Kind) << " (group " << group() << ")\n";
  switch (Kind) {
  case Scenario::NoPrefix:
  case Scenario::ConstPrefix: {
    if (Kind == Scenario::ConstPrefix)
      OS << "prefix length: " << PrefixLen << "\n";
    if (Merge.Refold) {
      OS << "merge: refold (duplicate-free union of partial bags)\n";
      break;
    }
    OS << "merge (binary combine of partial states a, b):\n";
    for (size_t I = 0, E = Prog.State.size(); I != E; ++I)
      OS << "  " << Prog.State.field(I).Name << " := "
         << ir::toString(Merge.Combine[I]) << "\n";
    break;
  }
  case Scenario::CondPrefixRefold:
  case Scenario::CondPrefixSummary: {
    OS << "prefix_cond(in) = " << ir::toString(Cond.PrefixCond) << "\n";
    OS << "control fields:";
    for (size_t F : Cond.CtrlFields)
      OS << " " << Prog.State.field(F).Name;
    OS << "  (" << Cond.numValuations() << " reachable valuations)\n";
    OS << "accumulators:";
    for (size_t J = 0; J != Cond.AccFields.size(); ++J)
      OS << " " << Prog.State.field(Cond.AccFields[J]).Name << "["
         << accFlavorName(Cond.AccFlavors[J]) << "]";
    OS << "\n";
    if (Kind == Scenario::CondPrefixSummary) {
      OS << "upd (materialized nested-ite form):\n";
      std::vector<ir::ExprRef> Upd = materializeUpdExprs(Prog, *this);
      for (size_t I = 0, E = Prog.State.size(); I != E; ++I)
        OS << "  " << Prog.State.field(I).Name << " := "
           << ir::toString(Upd[I]) << "\n";
    }
    break;
  }
  }
  return OS.str();
}

std::vector<ir::ExprRef>
materializeUpdExprs(const lang::SerialProgram &Prog,
                    const ParallelPlan &Plan) {
  using S = ir::SymbolicPolicy;
  S P;
  PlanExecutor<S> Exec(Prog, Plan, P);

  // State C as field variables.
  lang::StateVec<S> C = lang::freshState(Prog, "");

  // A symbolic worker summary: one variable per table slot.
  SummaryLayout Slots(Prog, Plan);
  WorkerResult<S> W;
  W.Found = ir::constBool(true);
  W.Boundary = ir::constInt(0);
  Slots.unflatten(Slots.vars(), W);

  return lang::scalarTerms(Exec.applyUpd(C, W));
}

int64_t runPlanConcrete(const lang::SerialProgram &Prog,
                        const ParallelPlan &Plan,
                        const std::vector<std::vector<int64_t>> &Segments) {
  ir::ConcretePolicy P;
  PlanExecutor<ir::ConcretePolicy> Exec(Prog, Plan, P);
  return Exec.run(Segments);
}

} // namespace synth
} // namespace grassp
