//===- smt/Z3Lower.cpp -----------------------------------------------------=//

#include "smt/Z3Lower.h"

#include <cassert>

namespace grassp {
namespace smt {

z3::expr Z3Lowerer::lower(const ir::ExprRef &E) {
  Retained.push_back(E);
  return lowerNode(E);
}

void Z3Lowerer::clear() {
  Cache.clear();
  Retained.clear();
}

z3::expr Z3Lowerer::lowerNode(const ir::ExprRef &E) {
  auto It = Cache.find(E.get());
  if (It != Cache.end())
    return It->second;
  z3::expr Z = lowerUncached(E);
  Cache.emplace(E.get(), Z);
  return Z;
}

z3::expr Z3Lowerer::lowerUncached(const ir::ExprRef &E) {
  using ir::Op;
  switch (E->getOp()) {
  case Op::ConstInt:
    return Ctx.int_val(static_cast<int64_t>(E->intValue()));
  case Op::ConstBool:
    return Ctx.bool_val(E->boolValue());
  case Op::Var:
    if (E->getType() == ir::TypeKind::Bool)
      return Ctx.bool_const(E->varName().c_str());
    assert(E->getType() == ir::TypeKind::Int && "bag var reached Z3");
    return Ctx.int_const(E->varName().c_str());
  case Op::Neg:
    return -lowerNode(E->operand(0));
  case Op::Not:
    return !lowerNode(E->operand(0));
  case Op::Ite:
    return z3::ite(lowerNode(E->operand(0)), lowerNode(E->operand(1)),
                   lowerNode(E->operand(2)));
  default:
    break;
  }
  z3::expr A = lowerNode(E->operand(0));
  z3::expr B = lowerNode(E->operand(1));
  switch (E->getOp()) {
  case Op::Add:
    return A + B;
  case Op::Sub:
    return A - B;
  case Op::Mul:
    return A * B;
  case Op::Div:
    return A / B; // SMT-LIB integer div.
  case Op::Mod:
    return z3::mod(A, B);
  case Op::Min:
    return z3::ite(A <= B, A, B);
  case Op::Max:
    return z3::ite(A >= B, A, B);
  case Op::Eq:
    return A == B;
  case Op::Ne:
    return A != B;
  case Op::Lt:
    return A < B;
  case Op::Le:
    return A <= B;
  case Op::Gt:
    return A > B;
  case Op::Ge:
    return A >= B;
  case Op::And:
    return A && B;
  case Op::Or:
    return A || B;
  default:
    assert(false && "unhandled opcode in Z3 lowering");
    return Ctx.bool_val(false);
  }
}

} // namespace smt
} // namespace grassp
