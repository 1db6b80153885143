//===- runtime/Specialize.cpp ---------------------------------------------==//

#include "runtime/Specialize.h"

#include "ir/Arith.h"
#include "ir/Expr.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

namespace grassp {
namespace runtime {

namespace {

using ir::Expr;
using ir::ExprRef;
using ir::Op;

using GuardKind = SpecializedStep::GuardKind;
using TermKind = SpecializedStep::TermKind;
using AccOpKind = SpecializedStep::AccOpKind;
using Lane = SpecializedStep::Lane;

bool isInVar(const ExprRef &E) {
  return E->isVar() && E->varName() == lang::inputVarName();
}

bool isVarNamed(const ExprRef &E, const std::string &Name) {
  return E->isVar() && E->varName() == Name;
}

/// Matches a binary node with operands {in, var Name} in either order.
bool isVarOpIn(const ExprRef &E, Op O, const std::string &Name,
               bool *InFirst = nullptr) {
  if (E->getOp() != O || E->numOperands() != 2)
    return false;
  if (isInVar(E->operand(0)) && isVarNamed(E->operand(1), Name)) {
    if (InFirst)
      *InFirst = true;
    return true;
  }
  if (isVarNamed(E->operand(0), Name) && isInVar(E->operand(1))) {
    if (InFirst)
      *InFirst = false;
    return true;
  }
  return false;
}

struct Guard {
  GuardKind K = GuardKind::True;
  int64_t C = 0;
  uint64_t M = 0;
};

GuardKind flipCmp(GuardKind K) {
  switch (K) {
  case GuardKind::Lt:
    return GuardKind::Gt;
  case GuardKind::Le:
    return GuardKind::Ge;
  case GuardKind::Gt:
    return GuardKind::Lt;
  case GuardKind::Ge:
    return GuardKind::Le;
  default:
    return K; // Eq/Ne are symmetric.
  }
}

std::optional<GuardKind> cmpKind(Op O) {
  switch (O) {
  case Op::Eq:
    return GuardKind::Eq;
  case Op::Ne:
    return GuardKind::Ne;
  case Op::Lt:
    return GuardKind::Lt;
  case Op::Le:
    return GuardKind::Le;
  case Op::Gt:
    return GuardKind::Gt;
  case Op::Ge:
    return GuardKind::Ge;
  default:
    return std::nullopt;
  }
}

/// intMod(in, c) with a nonzero constant modulus; returns |c| (2^63 for
/// INT64_MIN).
std::optional<uint64_t> matchModOfIn(const ExprRef &E) {
  if (E->getOp() != Op::Mod || !isInVar(E->operand(0)) ||
      !E->operand(1)->isConstInt())
    return std::nullopt;
  int64_t M = E->operand(1)->intValue();
  if (M == 0)
    return std::nullopt; // mod 0 is the VM's total-function edge case.
  return M < 0 ? 0 - static_cast<uint64_t>(M) : static_cast<uint64_t>(M);
}

/// A guard over the input element only: true, in <cmp> c, or
/// in mod m == k.
std::optional<Guard> matchGuard(const ExprRef &E) {
  if (E->isConstBool())
    return E->boolValue() ? std::optional<Guard>({GuardKind::True, 0, 0})
                          : std::nullopt;
  std::optional<GuardKind> K = cmpKind(E->getOp());
  if (!K)
    return std::nullopt;
  const ExprRef &A = E->operand(0);
  const ExprRef &B = E->operand(1);
  // in mod m == k (Eq only; residues live in [0, m)).
  if (*K == GuardKind::Eq) {
    if (auto M = matchModOfIn(A); M && B->isConstInt())
      return Guard{GuardKind::ModEq, B->intValue(), *M};
    if (auto M = matchModOfIn(B); M && A->isConstInt())
      return Guard{GuardKind::ModEq, A->intValue(), *M};
  }
  if (isInVar(A) && B->isConstInt())
    return Guard{*K, B->intValue(), 0};
  if (A->isConstInt() && isInVar(B))
    return Guard{flipCmp(*K), A->intValue(), 0};
  return std::nullopt;
}

/// Negation for the representable guards (ModEq has no complement in the
/// family).
std::optional<Guard> negateGuard(const Guard &G) {
  switch (G.K) {
  case GuardKind::Eq:
    return Guard{GuardKind::Ne, G.C, 0};
  case GuardKind::Ne:
    return Guard{GuardKind::Eq, G.C, 0};
  case GuardKind::Lt:
    return Guard{GuardKind::Ge, G.C, 0};
  case GuardKind::Le:
    return Guard{GuardKind::Gt, G.C, 0};
  case GuardKind::Gt:
    return Guard{GuardKind::Le, G.C, 0};
  case GuardKind::Ge:
    return Guard{GuardKind::Lt, G.C, 0};
  default:
    return std::nullopt;
  }
}

struct Term {
  TermKind K = TermKind::In;
  int64_t C = 0;
};

/// in, an integer constant, or |in| spelled max(in, -in).
std::optional<Term> matchTerm(const ExprRef &E) {
  if (isInVar(E))
    return Term{TermKind::In, 0};
  if (E->isConstInt())
    return Term{TermKind::Const, E->intValue()};
  if (E->getOp() == Op::Max && E->numOperands() == 2) {
    auto isNegIn = [](const ExprRef &X) {
      return X->getOp() == Op::Neg && isInVar(X->operand(0));
    };
    if ((isInVar(E->operand(0)) && isNegIn(E->operand(1))) ||
        (isNegIn(E->operand(0)) && isInVar(E->operand(1))))
      return Term{TermKind::AbsIn, 0};
  }
  return std::nullopt;
}

/// The unguarded accumulator core Op(field, Term): add/min/max with a
/// matched term, or field `or` Guard (modeled as or-accumulating the
/// constant 1 under that guard).
std::optional<Lane> matchAccCore(const std::string &Field, const ExprRef &E) {
  AccOpKind O;
  switch (E->getOp()) {
  case Op::Add:
    O = AccOpKind::Add;
    break;
  case Op::Min:
    O = AccOpKind::Min;
    break;
  case Op::Max:
    O = AccOpKind::Max;
    break;
  case Op::Or: {
    for (unsigned I = 0; I != 2; ++I) {
      if (!isVarNamed(E->operand(I), Field))
        continue;
      std::optional<Guard> G = matchGuard(E->operand(1 - I));
      if (!G)
        continue;
      Lane L;
      L.G = G->K;
      L.GC = G->C;
      L.GM = G->M;
      L.T = TermKind::Const;
      L.TC = 1;
      L.O = AccOpKind::Or;
      return L;
    }
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
  for (unsigned I = 0; I != 2; ++I) {
    if (!isVarNamed(E->operand(I), Field))
      continue;
    std::optional<Term> T = matchTerm(E->operand(1 - I));
    if (!T)
      continue;
    Lane L;
    L.T = T->K;
    L.TC = T->C;
    L.O = O;
    return L;
  }
  return std::nullopt;
}

/// A full independent lane: the core, optionally wrapped in
/// ite(Guard, core, field) (or the negated ite(Guard, field, core)).
std::optional<Lane> matchLane(const std::string &Field, const ExprRef &E) {
  if (std::optional<Lane> L = matchAccCore(Field, E))
    return L;
  if (E->getOp() != Op::Ite)
    return std::nullopt;
  std::optional<Guard> G = matchGuard(E->operand(0));
  if (!G)
    return std::nullopt;
  const ExprRef *Core = nullptr;
  if (isVarNamed(E->operand(2), Field)) {
    Core = &E->operand(1);
  } else if (isVarNamed(E->operand(1), Field)) {
    G = negateGuard(*G);
    if (!G)
      return std::nullopt;
    Core = &E->operand(2);
  } else {
    return std::nullopt;
  }
  std::optional<Lane> L = matchAccCore(Field, *Core);
  // A guarded core must itself be unguarded (no guard composition).
  if (!L || L->G != GuardKind::True)
    return std::nullopt;
  L->G = G->K;
  L->GC = G->C;
  L->GM = G->M;
  return L;
}

/// count_max / count_min:
///   ext' = max(ext, in)                       (min resp.)
///   cnt' = ite(in > ext, 1, ite(in == ext, cnt + 1, cnt))
std::optional<SpecializedStep::Counted>
matchCounted(const std::string &Ext, const std::string &Cnt,
             const ExprRef &ExtStep, const ExprRef &CntStep) {
  bool IsMax;
  if (isVarOpIn(ExtStep, Op::Max, Ext))
    IsMax = true;
  else if (isVarOpIn(ExtStep, Op::Min, Ext))
    IsMax = false;
  else
    return std::nullopt;
  if (CntStep->getOp() != Op::Ite)
    return std::nullopt;

  // Condition 1: strictly-better element (in > ext for max, < for min).
  const ExprRef &C1 = CntStep->operand(0);
  bool InFirst;
  Op Strict = IsMax ? Op::Gt : Op::Lt;
  Op StrictFlip = IsMax ? Op::Lt : Op::Gt;
  if (!(isVarOpIn(C1, Strict, Ext, &InFirst) && InFirst) &&
      !(isVarOpIn(C1, StrictFlip, Ext, &InFirst) && !InFirst))
    return std::nullopt;
  if (!CntStep->operand(1)->isConstInt() ||
      CntStep->operand(1)->intValue() != 1)
    return std::nullopt;

  // Inner ite: in == ext ? cnt + 1 : cnt.
  const ExprRef &Inner = CntStep->operand(2);
  if (Inner->getOp() != Op::Ite || !isVarOpIn(Inner->operand(0), Op::Eq, Ext))
    return std::nullopt;
  const ExprRef &Incr = Inner->operand(1);
  bool IncrOk =
      Incr->getOp() == Op::Add &&
      ((isVarNamed(Incr->operand(0), Cnt) && Incr->operand(1)->isConstInt() &&
        Incr->operand(1)->intValue() == 1) ||
       (isVarNamed(Incr->operand(1), Cnt) && Incr->operand(0)->isConstInt() &&
        Incr->operand(0)->intValue() == 1));
  if (!IncrOk || !isVarNamed(Inner->operand(2), Cnt))
    return std::nullopt;
  return SpecializedStep::Counted{0, 0, IsMax};
}

/// second_max (and the min dual):
///   m1' = max(m1, in)
///   m2' = ite(in >= m1, m1, max(m2, in))
std::optional<SpecializedStep::Second>
matchSecond(const std::string &M1, const std::string &M2,
            const ExprRef &S1, const ExprRef &S2) {
  bool IsMax;
  if (isVarOpIn(S1, Op::Max, M1))
    IsMax = true;
  else if (isVarOpIn(S1, Op::Min, M1))
    IsMax = false;
  else
    return std::nullopt;
  if (S2->getOp() != Op::Ite || !isVarNamed(S2->operand(1), M1))
    return std::nullopt;
  const ExprRef &Cond = S2->operand(0);
  bool InFirst;
  Op Weak = IsMax ? Op::Ge : Op::Le;
  Op WeakFlip = IsMax ? Op::Le : Op::Ge;
  if (!(isVarOpIn(Cond, Weak, M1, &InFirst) && InFirst) &&
      !(isVarOpIn(Cond, WeakFlip, M1, &InFirst) && !InFirst))
    return std::nullopt;
  if (!isVarOpIn(S2->operand(2), IsMax ? Op::Max : Op::Min, M2))
    return std::nullopt;
  return SpecializedStep::Second{0, 0, IsMax};
}

//===----------------------------------------------------------------------===//
// Fused native loops
//===----------------------------------------------------------------------===//

/// Folds one lane without a data-dependent branch: every element
/// contributes, a failed guard contributing the operator's identity
/// \p Id. \p M is all-ones or all-zeros, so the blend selects Term(X)
/// or Id, and the loop body stays straight-line for the vectorizer (a
/// guarded `if` compiles to a branch that mispredicts on random data).
template <class G, class T, class O>
int64_t accLoop(int64_t Acc, const int64_t *Data, size_t N, G Guard, T Term,
                O Op, int64_t Id) {
  for (size_t I = 0; I != N; ++I) {
    int64_t X = Data[I];
    int64_t M = -static_cast<int64_t>(Guard(X));
    Acc = Op(Acc, (Term(X) & M) | (Id & ~M));
  }
  return Acc;
}

int64_t runLane(const Lane &L, int64_t Acc, const int64_t *Data, size_t N) {
  auto withOp = [&](auto Guard, auto Term) -> int64_t {
    switch (L.O) {
    case AccOpKind::Add:
      return accLoop(
          Acc, Data, N, Guard, Term,
          [](int64_t A, int64_t B) { return ir::wrapAdd(A, B); }, 0);
    case AccOpKind::Min:
      return accLoop(
          Acc, Data, N, Guard, Term,
          [](int64_t A, int64_t B) { return A < B ? A : B; }, INT64_MAX);
    case AccOpKind::Max:
      return accLoop(
          Acc, Data, N, Guard, Term,
          [](int64_t A, int64_t B) { return A > B ? A : B; }, INT64_MIN);
    case AccOpKind::Or:
      // Or lanes accumulate a Bool field (0 or 1) and the constant 1, so
      // bitwise or is the logical or.
      return accLoop(
          Acc, Data, N, Guard, Term, [](int64_t A, int64_t B) { return A | B; },
          0);
    }
    return Acc;
  };
  auto withTerm = [&](auto Guard) -> int64_t {
    switch (L.T) {
    case TermKind::In:
      return withOp(Guard, [](int64_t X) { return X; });
    case TermKind::Const: {
      int64_t C = L.TC;
      return withOp(Guard, [C](int64_t) { return C; });
    }
    case TermKind::AbsIn:
      // max(in, -in) in wrapping arithmetic: |INT64_MIN| is INT64_MIN.
      return withOp(Guard,
                    [](int64_t X) { return X < 0 ? ir::wrapNeg(X) : X; });
    }
    return Acc;
  };
  switch (L.G) {
  case GuardKind::True:
    return withTerm([](int64_t) { return true; });
  case GuardKind::Eq: {
    int64_t C = L.GC;
    return withTerm([C](int64_t X) { return X == C; });
  }
  case GuardKind::Ne: {
    int64_t C = L.GC;
    return withTerm([C](int64_t X) { return X != C; });
  }
  case GuardKind::Lt: {
    int64_t C = L.GC;
    return withTerm([C](int64_t X) { return X < C; });
  }
  case GuardKind::Le: {
    int64_t C = L.GC;
    return withTerm([C](int64_t X) { return X <= C; });
  }
  case GuardKind::Gt: {
    int64_t C = L.GC;
    return withTerm([C](int64_t X) { return X > C; });
  }
  case GuardKind::Ge: {
    int64_t C = L.GC;
    return withTerm([C](int64_t X) { return X >= C; });
  }
  case GuardKind::ModEq: {
    // Euclidean residue: emod(x, m) == emod(x, |m|), in [0, |m|). For a
    // power-of-two |m| that is the low bits of x in two's complement,
    // which saves the idiv; |m| = 2^63 (m = INT64_MIN) lands here too.
    uint64_t M = L.GM;
    int64_t K = L.GC;
    if ((M & (M - 1)) == 0) {
      uint64_t Low = M - 1;
      return withTerm([Low, K](int64_t X) {
        return static_cast<int64_t>(static_cast<uint64_t>(X) & Low) == K;
      });
    }
    int64_t SM = static_cast<int64_t>(M); // < 2^63: not a power of two.
    return withTerm([SM, K](int64_t X) {
      int64_t R = X % SM;
      if (R < 0)
        R += SM;
      return R == K;
    });
  }
  }
  return Acc;
}

//===----------------------------------------------------------------------===//
// describe() helpers
//===----------------------------------------------------------------------===//

std::string laneString(const Lane &L, const std::string &Field) {
  std::ostringstream OS;
  OS << Field << ':';
  switch (L.O) {
  case AccOpKind::Add:
    OS << "add";
    break;
  case AccOpKind::Min:
    OS << "min";
    break;
  case AccOpKind::Max:
    OS << "max";
    break;
  case AccOpKind::Or:
    OS << "or";
    break;
  }
  OS << '(';
  switch (L.T) {
  case TermKind::In:
    OS << "in";
    break;
  case TermKind::Const:
    OS << L.TC;
    break;
  case TermKind::AbsIn:
    OS << "|in|";
    break;
  }
  OS << ')';
  static const char *CmpNames[] = {"", "==", "!=", "<", "<=", ">", ">="};
  switch (L.G) {
  case GuardKind::True:
    break;
  case GuardKind::ModEq:
    OS << "[in%" << L.GM << "==" << L.GC << ']';
    break;
  default:
    OS << "[in" << CmpNames[static_cast<unsigned>(L.G)] << L.GC << ']';
    break;
  }
  return OS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// SpecializedStep
//===----------------------------------------------------------------------===//

void SpecializedStep::fold(int64_t *State, const int64_t *Data,
                           size_t N) const {
  for (const Counted &K : Counteds) {
    int64_t M = State[K.Ext], C = State[K.Cnt];
    if (K.IsMax) {
      for (size_t I = 0; I != N; ++I) {
        int64_t X = Data[I];
        if (X > M) {
          M = X;
          C = 1;
        } else if (X == M) {
          ++C;
        }
      }
    } else {
      for (size_t I = 0; I != N; ++I) {
        int64_t X = Data[I];
        if (X < M) {
          M = X;
          C = 1;
        } else if (X == M) {
          ++C;
        }
      }
    }
    State[K.Ext] = M;
    State[K.Cnt] = C;
  }
  for (const Second &K : Seconds) {
    int64_t M1 = State[K.M1], M2 = State[K.M2];
    if (K.IsMax) {
      for (size_t I = 0; I != N; ++I) {
        int64_t X = Data[I];
        if (X >= M1) {
          M2 = M1;
          M1 = X;
        } else if (X > M2) {
          M2 = X;
        }
      }
    } else {
      for (size_t I = 0; I != N; ++I) {
        int64_t X = Data[I];
        if (X <= M1) {
          M2 = M1;
          M1 = X;
        } else if (X < M2) {
          M2 = X;
        }
      }
    }
    State[K.M1] = M1;
    State[K.M2] = M2;
  }
  for (const Lane &L : Lanes)
    State[L.Field] = runLane(L, State[L.Field], Data, N);
}

std::optional<SpecializedStep>
specializeStep(const lang::SerialProgram &Prog) {
  if (Prog.State.hasBag())
    return std::nullopt;
  size_t NF = Prog.State.size();
  if (NF == 0 || Prog.Step.size() != NF)
    return std::nullopt;

  SpecializedStep S;
  std::vector<bool> Covered(NF, false);
  std::vector<std::string> Parts;

  // Coupled two-field kernels claim their fields first, so e.g.
  // count_max's extremum is not grabbed as a plain max lane leaving the
  // count unmatched.
  for (size_t I = 0; I != NF; ++I) {
    for (size_t J = 0; J != NF; ++J) {
      if (I == J || Covered[I] || Covered[J])
        continue;
      const std::string &NI = Prog.State.field(I).Name;
      const std::string &NJ = Prog.State.field(J).Name;
      if (auto C = matchCounted(NI, NJ, Prog.Step[I], Prog.Step[J])) {
        C->Ext = static_cast<uint16_t>(I);
        C->Cnt = static_cast<uint16_t>(J);
        S.Counteds.push_back(*C);
        Covered[I] = Covered[J] = true;
        Parts.push_back(NI + "," + NJ + ":counted-" +
                        (C->IsMax ? "max" : "min"));
        continue;
      }
      if (auto W = matchSecond(NI, NJ, Prog.Step[I], Prog.Step[J])) {
        W->M1 = static_cast<uint16_t>(I);
        W->M2 = static_cast<uint16_t>(J);
        S.Seconds.push_back(*W);
        Covered[I] = Covered[J] = true;
        Parts.push_back(NI + "," + NJ + ":second-" +
                        (W->IsMax ? "max" : "min"));
      }
    }
  }

  for (size_t I = 0; I != NF; ++I) {
    if (Covered[I])
      continue;
    const std::string &Name = Prog.State.field(I).Name;
    // The lane shape only mentions the field and the input; reject
    // anything referencing other state up front.
    std::map<std::string, ir::TypeKind> Vars;
    ir::collectVars(Prog.Step[I], Vars);
    for (const auto &[V, Ty] : Vars)
      if (V != Name && V != lang::inputVarName())
        return std::nullopt;
    std::optional<Lane> L = matchLane(Name, Prog.Step[I]);
    if (!L)
      return std::nullopt;
    assert((L->O != AccOpKind::Or ||
            Prog.State.field(I).Ty == ir::TypeKind::Bool) &&
           "an or lane folds a Bool field");
    L->Field = static_cast<uint16_t>(I);
    S.Lanes.push_back(*L);
    Parts.push_back(laneString(*L, Name));
  }

  std::ostringstream OS;
  for (size_t I = 0; I != Parts.size(); ++I)
    OS << (I ? "; " : "") << Parts[I];
  S.Desc = OS.str();
  return S;
}

} // namespace runtime
} // namespace grassp
