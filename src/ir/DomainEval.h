//===- ir/DomainEval.h - Branch-free evaluation over abstract domains ----===//
//
// GRASSP evaluates the same program semantics in two domains:
//
//  * concretely (int64 scalars) — the reference interpreter used by the
//    runtime, the counterexample corpus, and property tests; and
//  * symbolically (IR expressions over fresh variables) — used by the
//    bounded equivalence verifier, which lowers the resulting terms to Z3.
//
// To guarantee that the verifier checks exactly what the runtime executes,
// evaluation is written once, branch-free (all control flow is `ite`), and
// templated over a *scalar policy*. Bags are represented uniformly as a
// list of (value, keep-flag) slots so that insert-if-absent is expressible
// without data-dependent control flow.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_IR_DOMAINEVAL_H
#define GRASSP_IR_DOMAINEVAL_H

#include "ir/Arith.h"
#include "ir/Expr.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace grassp {
namespace ir {

/// A value in some domain: either a scalar (Int/Bool) or a bag of
/// (value, keep) slots. Slots with a false keep-flag are logically absent;
/// this representation makes duplicate-free insertion branch-free.
template <class S> struct DomainValue {
  using Scalar = typename S::Scalar;
  Scalar Sc{};
  bool IsBag = false;
  std::vector<std::pair<Scalar, Scalar>> Bag;

  static DomainValue scalar(Scalar V) {
    DomainValue R;
    R.Sc = std::move(V);
    return R;
  }
  static DomainValue emptyBag() {
    DomainValue R;
    R.IsBag = true;
    return R;
  }
};

/// Concrete scalar policy: wrapping, total int64 arithmetic (ir/Arith.h),
/// bools as 0/1.
struct ConcretePolicy {
  using Scalar = int64_t;

  Scalar constInt(int64_t V) { return V; }
  Scalar constBool(bool V) { return V ? 1 : 0; }
  Scalar add(Scalar A, Scalar B) { return wrapAdd(A, B); }
  Scalar sub(Scalar A, Scalar B) { return wrapSub(A, B); }
  Scalar mul(Scalar A, Scalar B) { return wrapMul(A, B); }
  Scalar intDiv(Scalar A, Scalar B) { return floorDiv(A, B); }
  Scalar intMod(Scalar A, Scalar B) { return euclidMod(A, B); }
  Scalar negate(Scalar A) { return wrapNeg(A); }
  Scalar smin(Scalar A, Scalar B) { return A < B ? A : B; }
  Scalar smax(Scalar A, Scalar B) { return A > B ? A : B; }
  Scalar eq(Scalar A, Scalar B) { return A == B; }
  Scalar ne(Scalar A, Scalar B) { return A != B; }
  Scalar lt(Scalar A, Scalar B) { return A < B; }
  Scalar le(Scalar A, Scalar B) { return A <= B; }
  Scalar gt(Scalar A, Scalar B) { return A > B; }
  Scalar ge(Scalar A, Scalar B) { return A >= B; }
  Scalar land(Scalar A, Scalar B) { return (A != 0 && B != 0) ? 1 : 0; }
  Scalar lor(Scalar A, Scalar B) { return (A != 0 || B != 0) ? 1 : 0; }
  Scalar lnot(Scalar A) { return A == 0 ? 1 : 0; }
  Scalar ite(Scalar C, Scalar T, Scalar E) { return C != 0 ? T : E; }
};

/// Symbolic scalar policy: builds IR terms (which the SMT layer lowers).
struct SymbolicPolicy {
  using Scalar = ExprRef;

  Scalar constInt(int64_t V) { return ir::constInt(V); }
  Scalar constBool(bool V) { return ir::constBool(V); }
  Scalar add(Scalar A, Scalar B) { return ir::add(A, B); }
  Scalar sub(Scalar A, Scalar B) { return ir::sub(A, B); }
  Scalar mul(Scalar A, Scalar B) { return ir::mul(A, B); }
  Scalar intDiv(Scalar A, Scalar B) { return ir::intDiv(A, B); }
  Scalar intMod(Scalar A, Scalar B) { return ir::intMod(A, B); }
  Scalar negate(Scalar A) { return ir::neg(A); }
  Scalar smin(Scalar A, Scalar B) { return ir::smin(A, B); }
  Scalar smax(Scalar A, Scalar B) { return ir::smax(A, B); }
  Scalar eq(Scalar A, Scalar B) { return ir::eq(A, B); }
  Scalar ne(Scalar A, Scalar B) { return ir::ne(A, B); }
  Scalar lt(Scalar A, Scalar B) { return ir::lt(A, B); }
  Scalar le(Scalar A, Scalar B) { return ir::le(A, B); }
  Scalar gt(Scalar A, Scalar B) { return ir::gt(A, B); }
  Scalar ge(Scalar A, Scalar B) { return ir::ge(A, B); }
  Scalar land(Scalar A, Scalar B) { return ir::land(A, B); }
  Scalar lor(Scalar A, Scalar B) { return ir::lor(A, B); }
  Scalar lnot(Scalar A) { return ir::lnot(A); }
  Scalar ite(Scalar C, Scalar T, Scalar E) { return ir::ite(C, T, E); }
};

template <class S>
using DomainEnv = std::map<std::string, DomainValue<S>>;

/// Returns a Bool scalar meaning "value \p V occurs in \p Bag".
template <class S>
typename S::Scalar bagContains(S &P, const DomainValue<S> &Bag,
                               const typename S::Scalar &V) {
  typename S::Scalar Present = P.constBool(false);
  for (const auto &Slot : Bag.Bag)
    Present = P.lor(Present, P.land(Slot.second, P.eq(Slot.first, V)));
  return Present;
}

/// Inserts \p V into \p Bag unless present; returns the new bag.
template <class S>
DomainValue<S> bagInsertDistinctVal(S &P, const DomainValue<S> &Bag,
                                    const typename S::Scalar &V) {
  DomainValue<S> R = Bag;
  typename S::Scalar Keep = P.lnot(bagContains(P, Bag, V));
  R.Bag.emplace_back(V, std::move(Keep));
  return R;
}

/// Duplicate-free union of two bags.
template <class S>
DomainValue<S> bagUnionVal(S &P, const DomainValue<S> &A,
                           const DomainValue<S> &B) {
  DomainValue<S> R = A;
  for (const auto &Slot : B.Bag) {
    typename S::Scalar Keep =
        P.land(Slot.second, P.lnot(bagContains(P, R, Slot.first)));
    R.Bag.emplace_back(Slot.first, std::move(Keep));
  }
  return R;
}

/// Number of kept slots in \p Bag, as a scalar.
template <class S>
typename S::Scalar bagSizeVal(S &P, const DomainValue<S> &Bag) {
  typename S::Scalar N = P.constInt(0);
  for (const auto &Slot : Bag.Bag)
    N = P.add(N, P.ite(Slot.second, P.constInt(1), P.constInt(0)));
  return N;
}

/// Select between two domain values (branch-free bag-aware ite).
template <class S>
DomainValue<S> selectValue(S &P, const typename S::Scalar &C,
                           const DomainValue<S> &T, const DomainValue<S> &E) {
  if (!T.IsBag) {
    assert(!E.IsBag && "ite branch kinds differ");
    return DomainValue<S>::scalar(P.ite(C, T.Sc, E.Sc));
  }
  // Bag select: keep both slot lists, gating the keep flags.
  DomainValue<S> R = DomainValue<S>::emptyBag();
  for (const auto &Slot : T.Bag)
    R.Bag.emplace_back(Slot.first, P.land(C, Slot.second));
  typename S::Scalar NotC = P.lnot(C);
  for (const auto &Slot : E.Bag)
    R.Bag.emplace_back(Slot.first, P.land(NotC, Slot.second));
  return R;
}

/// Evaluates expression \p E in environment \p Env under policy \p P.
template <class S>
DomainValue<S> evalExpr(const ExprRef &E, const DomainEnv<S> &Env, S &P) {
  using DV = DomainValue<S>;
  switch (E->getOp()) {
  case Op::ConstInt:
    return DV::scalar(P.constInt(E->intValue()));
  case Op::ConstBool:
    return DV::scalar(P.constBool(E->boolValue()));
  case Op::Var: {
    auto It = Env.find(E->varName());
    assert(It != Env.end() && "unbound variable");
    return It->second;
  }
  case Op::Neg:
    return DV::scalar(P.negate(evalExpr(E->operand(0), Env, P).Sc));
  case Op::Not:
    return DV::scalar(P.lnot(evalExpr(E->operand(0), Env, P).Sc));
  case Op::Ite: {
    DV C = evalExpr(E->operand(0), Env, P);
    DV T = evalExpr(E->operand(1), Env, P);
    DV Else = evalExpr(E->operand(2), Env, P);
    return selectValue(P, C.Sc, T, Else);
  }
  case Op::BagInsertDistinct: {
    DV Bag = evalExpr(E->operand(0), Env, P);
    DV V = evalExpr(E->operand(1), Env, P);
    return bagInsertDistinctVal(P, Bag, V.Sc);
  }
  case Op::BagUnion: {
    DV A = evalExpr(E->operand(0), Env, P);
    DV B = evalExpr(E->operand(1), Env, P);
    return bagUnionVal(P, A, B);
  }
  case Op::BagSize: {
    DV Bag = evalExpr(E->operand(0), Env, P);
    return DV::scalar(bagSizeVal(P, Bag));
  }
  default:
    break;
  }
  // Binary scalar operators.
  DV A = evalExpr(E->operand(0), Env, P);
  DV B = evalExpr(E->operand(1), Env, P);
  switch (E->getOp()) {
  case Op::Add:
    return DV::scalar(P.add(A.Sc, B.Sc));
  case Op::Sub:
    return DV::scalar(P.sub(A.Sc, B.Sc));
  case Op::Mul:
    return DV::scalar(P.mul(A.Sc, B.Sc));
  case Op::Div:
    return DV::scalar(P.intDiv(A.Sc, B.Sc));
  case Op::Mod:
    return DV::scalar(P.intMod(A.Sc, B.Sc));
  case Op::Min:
    return DV::scalar(P.smin(A.Sc, B.Sc));
  case Op::Max:
    return DV::scalar(P.smax(A.Sc, B.Sc));
  case Op::Eq:
    return DV::scalar(P.eq(A.Sc, B.Sc));
  case Op::Ne:
    return DV::scalar(P.ne(A.Sc, B.Sc));
  case Op::Lt:
    return DV::scalar(P.lt(A.Sc, B.Sc));
  case Op::Le:
    return DV::scalar(P.le(A.Sc, B.Sc));
  case Op::Gt:
    return DV::scalar(P.gt(A.Sc, B.Sc));
  case Op::Ge:
    return DV::scalar(P.ge(A.Sc, B.Sc));
  case Op::And:
    return DV::scalar(P.land(A.Sc, B.Sc));
  case Op::Or:
    return DV::scalar(P.lor(A.Sc, B.Sc));
  default:
    assert(false && "unhandled opcode in evalExpr");
    return DV();
  }
}

} // namespace ir
} // namespace grassp

#endif // GRASSP_IR_DOMAINEVAL_H
