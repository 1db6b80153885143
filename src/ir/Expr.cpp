//===- ir/Expr.cpp ---------------------------------------------------------=//

#include "ir/Expr.h"

#include "ir/Arith.h"

#include <cassert>
#include <functional>
#include <sstream>

namespace grassp {
namespace ir {

const char *typeName(TypeKind K) {
  switch (K) {
  case TypeKind::Int:
    return "Int";
  case TypeKind::Bool:
    return "Bool";
  case TypeKind::Bag:
    return "Bag";
  }
  return "?";
}

const char *opName(Op O) {
  switch (O) {
  case Op::ConstInt:
    return "const";
  case Op::ConstBool:
    return "constb";
  case Op::Var:
    return "var";
  case Op::Add:
    return "add";
  case Op::Sub:
    return "sub";
  case Op::Mul:
    return "mul";
  case Op::Div:
    return "div";
  case Op::Mod:
    return "mod";
  case Op::Neg:
    return "neg";
  case Op::Min:
    return "min";
  case Op::Max:
    return "max";
  case Op::Eq:
    return "eq";
  case Op::Ne:
    return "ne";
  case Op::Lt:
    return "lt";
  case Op::Le:
    return "le";
  case Op::Gt:
    return "gt";
  case Op::Ge:
    return "ge";
  case Op::And:
    return "and";
  case Op::Or:
    return "or";
  case Op::Not:
    return "not";
  case Op::Ite:
    return "ite";
  case Op::BagInsertDistinct:
    return "bag-insert";
  case Op::BagUnion:
    return "bag-union";
  case Op::BagSize:
    return "bag-size";
  }
  return "?";
}

Expr::Expr(Op O, TypeKind T, int64_t IV, bool BV, std::string VN,
           std::vector<ExprRef> Ops)
    : Opcode(O), Ty(T), IntVal(IV), BoolVal(BV), VarName(std::move(VN)),
      Operands(std::move(Ops)) {
  size_t H = std::hash<int>()(static_cast<int>(O));
  auto Mix = [&H](size_t X) {
    H ^= X + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  };
  Mix(std::hash<int64_t>()(IntVal));
  Mix(std::hash<bool>()(BoolVal));
  Mix(std::hash<std::string>()(VarName));
  for (const ExprRef &Opnd : Operands)
    Mix(Opnd->hash());
  HashCache = H;
}

int64_t Expr::intValue() const {
  assert(isConstInt() && "not a ConstInt");
  return IntVal;
}

bool Expr::boolValue() const {
  assert(isConstBool() && "not a ConstBool");
  return BoolVal;
}

const std::string &Expr::varName() const {
  assert(isVar() && "not a Var");
  return VarName;
}

static ExprRef makeNode(Op O, TypeKind Ty, int64_t IV, bool BV,
                        std::string VN, std::vector<ExprRef> Ops) {
  return std::make_shared<Expr>(O, Ty, IV, BV, std::move(VN), std::move(Ops));
}

ExprRef constInt(int64_t V) {
  return makeNode(Op::ConstInt, TypeKind::Int, V, false, "", {});
}

ExprRef constBool(bool V) {
  return makeNode(Op::ConstBool, TypeKind::Bool, 0, V, "", {});
}

ExprRef var(const std::string &Name, TypeKind Ty) {
  return makeNode(Op::Var, Ty, 0, false, Name, {});
}

bool structurallyEqual(const ExprRef &A, const ExprRef &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B)
    return false;
  if (A->hash() != B->hash() || A->getOp() != B->getOp() ||
      A->getType() != B->getType() ||
      A->numOperands() != B->numOperands())
    return false;
  switch (A->getOp()) {
  case Op::ConstInt:
    return A->intValue() == B->intValue();
  case Op::ConstBool:
    return A->boolValue() == B->boolValue();
  case Op::Var:
    return A->varName() == B->varName();
  default:
    break;
  }
  for (unsigned I = 0, E = A->numOperands(); I != E; ++I)
    if (!structurallyEqual(A->operand(I), B->operand(I)))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Folding builders
//===----------------------------------------------------------------------===//

ExprRef add(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Int && B->getType() == TypeKind::Int);
  if (A->isConstInt() && B->isConstInt())
    return constInt(wrapAdd(A->intValue(), B->intValue()));
  if (A->isConstInt() && A->intValue() == 0)
    return B;
  if (B->isConstInt() && B->intValue() == 0)
    return A;
  return makeNode(Op::Add, TypeKind::Int, 0, false, "", {A, B});
}

ExprRef sub(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Int && B->getType() == TypeKind::Int);
  if (A->isConstInt() && B->isConstInt())
    return constInt(wrapSub(A->intValue(), B->intValue()));
  if (B->isConstInt() && B->intValue() == 0)
    return A;
  if (structurallyEqual(A, B))
    return constInt(0);
  return makeNode(Op::Sub, TypeKind::Int, 0, false, "", {A, B});
}

ExprRef mul(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Int && B->getType() == TypeKind::Int);
  if (A->isConstInt() && B->isConstInt())
    return constInt(wrapMul(A->intValue(), B->intValue()));
  if (A->isConstInt() && A->intValue() == 1)
    return B;
  if (B->isConstInt() && B->intValue() == 1)
    return A;
  if ((A->isConstInt() && A->intValue() == 0) ||
      (B->isConstInt() && B->intValue() == 0))
    return constInt(0);
  return makeNode(Op::Mul, TypeKind::Int, 0, false, "", {A, B});
}

ExprRef intDiv(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Int && B->getType() == TypeKind::Int);
  // Floor and Euclidean division (SMT-LIB `div`) agree for positive
  // divisors, the only ones folded.
  if (A->isConstInt() && B->isConstInt() && B->intValue() > 0)
    return constInt(floorDiv(A->intValue(), B->intValue()));
  if (B->isConstInt() && B->intValue() == 1)
    return A;
  return makeNode(Op::Div, TypeKind::Int, 0, false, "", {A, B});
}

ExprRef intMod(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Int && B->getType() == TypeKind::Int);
  if (A->isConstInt() && B->isConstInt() && B->intValue() != 0)
    return constInt(euclidMod(A->intValue(), B->intValue()));
  return makeNode(Op::Mod, TypeKind::Int, 0, false, "", {A, B});
}

ExprRef neg(ExprRef A) {
  assert(A->getType() == TypeKind::Int);
  if (A->isConstInt())
    return constInt(wrapNeg(A->intValue()));
  if (A->getOp() == Op::Neg)
    return A->operand(0);
  return makeNode(Op::Neg, TypeKind::Int, 0, false, "", {A});
}

ExprRef smin(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Int && B->getType() == TypeKind::Int);
  if (A->isConstInt() && B->isConstInt())
    return constInt(std::min(A->intValue(), B->intValue()));
  if (structurallyEqual(A, B))
    return A;
  return makeNode(Op::Min, TypeKind::Int, 0, false, "", {A, B});
}

ExprRef smax(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Int && B->getType() == TypeKind::Int);
  if (A->isConstInt() && B->isConstInt())
    return constInt(std::max(A->intValue(), B->intValue()));
  if (structurallyEqual(A, B))
    return A;
  return makeNode(Op::Max, TypeKind::Int, 0, false, "", {A, B});
}

static ExprRef makeCmp(Op O, ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Int && B->getType() == TypeKind::Int);
  if (A->isConstInt() && B->isConstInt()) {
    int64_t X = A->intValue(), Y = B->intValue();
    switch (O) {
    case Op::Eq:
      return constBool(X == Y);
    case Op::Ne:
      return constBool(X != Y);
    case Op::Lt:
      return constBool(X < Y);
    case Op::Le:
      return constBool(X <= Y);
    case Op::Gt:
      return constBool(X > Y);
    case Op::Ge:
      return constBool(X >= Y);
    default:
      break;
    }
  }
  if (structurallyEqual(A, B)) {
    switch (O) {
    case Op::Eq:
    case Op::Le:
    case Op::Ge:
      return constBool(true);
    case Op::Ne:
    case Op::Lt:
    case Op::Gt:
      return constBool(false);
    default:
      break;
    }
  }
  return makeNode(O, TypeKind::Bool, 0, false, "", {A, B});
}

ExprRef eq(ExprRef A, ExprRef B) {
  if (A->getType() == TypeKind::Bool) {
    assert(B->getType() == TypeKind::Bool);
    // Boolean equality as xnor via ite.
    return ite(A, B, lnot(B));
  }
  return makeCmp(Op::Eq, A, B);
}
ExprRef ne(ExprRef A, ExprRef B) {
  if (A->getType() == TypeKind::Bool)
    return lnot(eq(A, B));
  return makeCmp(Op::Ne, A, B);
}
ExprRef lt(ExprRef A, ExprRef B) { return makeCmp(Op::Lt, A, B); }
ExprRef le(ExprRef A, ExprRef B) { return makeCmp(Op::Le, A, B); }
ExprRef gt(ExprRef A, ExprRef B) { return makeCmp(Op::Gt, A, B); }
ExprRef ge(ExprRef A, ExprRef B) { return makeCmp(Op::Ge, A, B); }

ExprRef land(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Bool && B->getType() == TypeKind::Bool);
  if (A->isConstBool())
    return A->boolValue() ? B : constBool(false);
  if (B->isConstBool())
    return B->boolValue() ? A : constBool(false);
  if (structurallyEqual(A, B))
    return A;
  return makeNode(Op::And, TypeKind::Bool, 0, false, "", {A, B});
}

ExprRef lor(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Bool && B->getType() == TypeKind::Bool);
  if (A->isConstBool())
    return A->boolValue() ? constBool(true) : B;
  if (B->isConstBool())
    return B->boolValue() ? constBool(true) : A;
  if (structurallyEqual(A, B))
    return A;
  return makeNode(Op::Or, TypeKind::Bool, 0, false, "", {A, B});
}

ExprRef lnot(ExprRef A) {
  assert(A->getType() == TypeKind::Bool);
  if (A->isConstBool())
    return constBool(!A->boolValue());
  if (A->getOp() == Op::Not)
    return A->operand(0);
  return makeNode(Op::Not, TypeKind::Bool, 0, false, "", {A});
}

ExprRef ite(ExprRef C, ExprRef T, ExprRef E) {
  assert(C->getType() == TypeKind::Bool && "ite condition must be Bool");
  assert(T->getType() == E->getType() && "ite branches must agree");
  if (C->isConstBool())
    return C->boolValue() ? T : E;
  if (structurallyEqual(T, E))
    return T;
  // ite(c, true, false) == c; ite(c, false, true) == !c.
  if (T->getType() == TypeKind::Bool && T->isConstBool() && E->isConstBool()) {
    if (T->boolValue() && !E->boolValue())
      return C;
    if (!T->boolValue() && E->boolValue())
      return lnot(C);
  }
  if (C->getOp() == Op::Not)
    return ite(C->operand(0), E, T);
  return makeNode(Op::Ite, T->getType(), 0, false, "", {C, T, E});
}

ExprRef bagInsertDistinct(ExprRef Bag, ExprRef V) {
  assert(Bag->getType() == TypeKind::Bag && V->getType() == TypeKind::Int);
  return makeNode(Op::BagInsertDistinct, TypeKind::Bag, 0, false, "",
                  {Bag, V});
}

ExprRef bagUnion(ExprRef A, ExprRef B) {
  assert(A->getType() == TypeKind::Bag && B->getType() == TypeKind::Bag);
  return makeNode(Op::BagUnion, TypeKind::Bag, 0, false, "", {A, B});
}

ExprRef bagSize(ExprRef Bag) {
  assert(Bag->getType() == TypeKind::Bag);
  return makeNode(Op::BagSize, TypeKind::Int, 0, false, "", {Bag});
}

ExprRef binary(Op O, ExprRef A, ExprRef B) {
  switch (O) {
  case Op::Add:
    return add(A, B);
  case Op::Sub:
    return sub(A, B);
  case Op::Mul:
    return mul(A, B);
  case Op::Div:
    return intDiv(A, B);
  case Op::Mod:
    return intMod(A, B);
  case Op::Min:
    return smin(A, B);
  case Op::Max:
    return smax(A, B);
  case Op::Eq:
    return eq(A, B);
  case Op::Ne:
    return ne(A, B);
  case Op::Lt:
    return lt(A, B);
  case Op::Le:
    return le(A, B);
  case Op::Gt:
    return gt(A, B);
  case Op::Ge:
    return ge(A, B);
  case Op::And:
    return land(A, B);
  case Op::Or:
    return lor(A, B);
  case Op::BagInsertDistinct:
    return bagInsertDistinct(A, B);
  case Op::BagUnion:
    return bagUnion(A, B);
  default:
    assert(false && "not a binary op");
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Queries and transforms
//===----------------------------------------------------------------------===//

unsigned exprSize(const ExprRef &E) {
  unsigned N = 1;
  for (const ExprRef &Opnd : E->operands())
    N += exprSize(Opnd);
  return N;
}

void collectVars(const ExprRef &E, std::map<std::string, TypeKind> &Out) {
  if (E->isVar()) {
    Out.emplace(E->varName(), E->getType());
    return;
  }
  for (const ExprRef &Opnd : E->operands())
    collectVars(Opnd, Out);
}

void collectIntConstants(const ExprRef &E, std::set<int64_t> &Out) {
  if (E->isConstInt()) {
    Out.insert(E->intValue());
    return;
  }
  for (const ExprRef &Opnd : E->operands())
    collectIntConstants(Opnd, Out);
}

ExprRef substitute(const ExprRef &E,
                   const std::map<std::string, ExprRef> &Subst) {
  if (E->isVar()) {
    auto It = Subst.find(E->varName());
    if (It == Subst.end())
      return E;
    assert(It->second->getType() == E->getType() &&
           "substitution changes type");
    return It->second;
  }
  if (E->numOperands() == 0)
    return E;
  std::vector<ExprRef> NewOps;
  NewOps.reserve(E->numOperands());
  bool Changed = false;
  for (const ExprRef &Opnd : E->operands()) {
    ExprRef N = substitute(Opnd, Subst);
    Changed |= (N.get() != Opnd.get());
    NewOps.push_back(std::move(N));
  }
  if (!Changed)
    return E;
  switch (E->getOp()) {
  case Op::Neg:
    return neg(NewOps[0]);
  case Op::Not:
    return lnot(NewOps[0]);
  case Op::BagSize:
    return bagSize(NewOps[0]);
  case Op::Ite:
    return ite(NewOps[0], NewOps[1], NewOps[2]);
  default:
    return binary(E->getOp(), NewOps[0], NewOps[1]);
  }
}

static void printExpr(const ExprRef &E, std::ostringstream &OS) {
  auto Infix = [&](const char *Sym) {
    OS << '(';
    printExpr(E->operand(0), OS);
    OS << ' ' << Sym << ' ';
    printExpr(E->operand(1), OS);
    OS << ')';
  };
  auto Call = [&](const char *Name) {
    OS << Name << '(';
    for (unsigned I = 0, N = E->numOperands(); I != N; ++I) {
      if (I)
        OS << ", ";
      printExpr(E->operand(I), OS);
    }
    OS << ')';
  };
  switch (E->getOp()) {
  case Op::ConstInt:
    OS << E->intValue();
    return;
  case Op::ConstBool:
    OS << (E->boolValue() ? "true" : "false");
    return;
  case Op::Var:
    OS << E->varName();
    return;
  case Op::Add:
    return Infix("+");
  case Op::Sub:
    return Infix("-");
  case Op::Mul:
    return Infix("*");
  case Op::Div:
    return Infix("/");
  case Op::Mod:
    return Infix("%");
  case Op::Eq:
    return Infix("==");
  case Op::Ne:
    return Infix("!=");
  case Op::Lt:
    return Infix("<");
  case Op::Le:
    return Infix("<=");
  case Op::Gt:
    return Infix(">");
  case Op::Ge:
    return Infix(">=");
  case Op::And:
    return Infix("&&");
  case Op::Or:
    return Infix("||");
  case Op::Neg:
    OS << "-";
    printExpr(E->operand(0), OS);
    return;
  case Op::Not:
    OS << "!";
    printExpr(E->operand(0), OS);
    return;
  case Op::Min:
    return Call("min");
  case Op::Max:
    return Call("max");
  case Op::Ite:
    return Call("ite");
  case Op::BagInsertDistinct:
    return Call("bagInsert");
  case Op::BagUnion:
    return Call("bagUnion");
  case Op::BagSize:
    return Call("bagSize");
  }
}

std::string toString(const ExprRef &E) {
  std::ostringstream OS;
  printExpr(E, OS);
  return OS.str();
}

} // namespace ir
} // namespace grassp
