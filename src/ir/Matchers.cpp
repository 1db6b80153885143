//===- ir/Matchers.cpp -----------------------------------------------------=//

#include "ir/Matchers.h"

namespace grassp {
namespace ir {

static void collectAllVars(const ExprRef &E, std::set<std::string> &Out) {
  if (E->isVar()) {
    Out.insert(E->varName());
    return;
  }
  for (const ExprRef &Opnd : E->operands())
    collectAllVars(Opnd, Out);
}

static void analyzeShape(const ExprRef &E, StepShape &S) {
  switch (E->getOp()) {
  case Op::ConstInt:
  case Op::ConstBool:
    return;
  case Op::Var:
    S.ValueVars.insert(E->varName());
    return;
  case Op::Ite:
    // The condition only steers the choice.
    collectAllVars(E->operand(0), S.CondVars);
    analyzeShape(E->operand(1), S);
    analyzeShape(E->operand(2), S);
    return;
  case Op::Eq:
  case Op::Ne:
  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge:
    // A comparison at value position produces a Bool drawn from a
    // two-element set; treat its operands as condition-only.
    collectAllVars(E, S.CondVars);
    return;
  case Op::And:
  case Op::Or:
  case Op::Not:
    // Boolean structure over comparisons; operand vars only steer.
    collectAllVars(E, S.CondVars);
    return;
  default:
    // Arithmetic or bag ops at a value position.
    S.ValueHasArith = true;
    for (const ExprRef &Opnd : E->operands())
      collectAllVars(Opnd, S.ValueVars);
    return;
  }
}

StepShape analyzeStepShape(const ExprRef &E) {
  StepShape S;
  analyzeShape(E, S);
  return S;
}

} // namespace ir
} // namespace grassp
