//===- synth/PlanEval.h - Executing plans over abstract domains ----------===//
//
// The single definition of what a ParallelPlan *means*. Evaluation is
// branch-free (all control is `ite`/select) and templated over the scalar
// policy, so the exact same code:
//   * concretely executes plans (reference semantics for the runtime and
//     the counterexample corpus), and
//   * symbolically encodes plans for the bounded equivalence verifier.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SYNTH_PLANEVAL_H
#define GRASSP_SYNTH_PLANEVAL_H

#include "lang/Interp.h"
#include "synth/ParallelPlan.h"

#include <cassert>
#include <vector>

namespace grassp {
namespace synth {

/// Per-segment worker result for the conditional-prefix scenarios.
template <class S> struct WorkerResult {
  using Sc = typename S::Scalar;

  Sc Found;    // Bool: a boundary element was seen.
  Sc Boundary; // Int: the boundary element (meaningful iff Found).
  lang::StateVec<S> D; // fold(f, d0, suffix-including-boundary).

  // Summary scenario: per start-valuation control tracking and parametric
  // accumulator transforms.
  std::vector<std::vector<Sc>> CtrlCur;          // [v][ctrlField]
  std::vector<std::vector<Sc>> Mode;             // [v][acc]
  std::vector<std::vector<Sc>> Arg;              // [v][acc]

  // Refold scenario: every element with an "is in prefix" flag.
  std::vector<std::pair<Sc, Sc>> PrefixEls;
};

/// Executes plans of every scenario in domain S.
template <class S> class PlanExecutor {
public:
  using Sc = typename S::Scalar;
  using DV = ir::DomainValue<S>;
  using State = lang::StateVec<S>;

  PlanExecutor(const lang::SerialProgram &Prog, const ParallelPlan &Plan,
               S &P)
      : Prog(Prog), Plan(Plan), P(P) {}

  /// Runs the plan over \p Segments and returns the final output scalar.
  Sc run(const std::vector<std::vector<Sc>> &Segments) {
    switch (Plan.Kind) {
    case Scenario::NoPrefix:
      return runNoPrefix(Segments);
    case Scenario::ConstPrefix:
      return runConstPrefix(Segments);
    case Scenario::CondPrefixRefold:
    case Scenario::CondPrefixSummary:
      return runCondPrefix(Segments);
    }
    assert(false && "unknown scenario");
    return P.constInt(0);
  }

  /// Runs one conditional-prefix worker over a segment (exposed for the
  /// runtime and for tests).
  WorkerResult<S> runWorker(const std::vector<Sc> &Segment) {
    const CondPrefixInfo &CP = Plan.Cond;
    size_t NumV = CP.numValuations();
    size_t NumCtrl = CP.CtrlFields.size();
    size_t NumAcc = CP.AccFields.size();
    bool Summary = Plan.Kind == Scenario::CondPrefixSummary;

    WorkerResult<S> W;
    W.Found = P.constBool(false);
    W.Boundary = P.constInt(0);
    W.D = lang::initialState(Prog, P);
    if (Summary) {
      W.CtrlCur.resize(NumV);
      W.Mode.resize(NumV);
      W.Arg.resize(NumV);
      for (size_t V = 0; V != NumV; ++V) {
        for (size_t K = 0; K != NumCtrl; ++K)
          W.CtrlCur[V].push_back(ctrlConst(K, CP.CtrlValues[V][K]));
        for (size_t J = 0; J != NumAcc; ++J) {
          W.Mode[V].push_back(P.constInt(0)); // identity
          W.Arg[V].push_back(accZero(J));
        }
      }
    }

    for (const Sc &El : Segment)
      stepWorker(W, El);
    return W;
  }

  /// Advances a conditional-prefix worker by one element. Also the
  /// transition relation of the worker in the CHC encoding.
  void stepWorker(WorkerResult<S> &W, const Sc &El) {
    const CondPrefixInfo &CP = Plan.Cond;
    size_t NumV = CP.numValuations();
    size_t NumCtrl = CP.CtrlFields.size();
    size_t NumAcc = CP.AccFields.size();
    bool Summary = Plan.Kind == Scenario::CondPrefixSummary;
    {
      Sc PcEl = evalPrefixCond(El);
      Sc IsBnd = P.land(P.lnot(W.Found), PcEl);
      Sc InPrefix = P.land(P.lnot(W.Found), P.lnot(PcEl));
      W.Boundary = P.ite(IsBnd, El, W.Boundary);
      Sc FoundNext = P.lor(W.Found, PcEl);

      if (Summary) {
        for (size_t V = 0; V != NumV; ++V) {
          // Accumulator transforms use the control valuation *before*
          // this element; compute them first.
          std::vector<Sc> StepMode(NumAcc), StepArg(NumAcc);
          for (size_t J = 0; J != NumAcc; ++J) {
            StepMode[J] = selectByValuation(
                W.CtrlCur[V],
                [&](size_t Wv) { return evalOverIn(CP.AccMode[Wv][J], El); },
                P.constInt(0));
            StepArg[J] = selectByValuation(
                W.CtrlCur[V],
                [&](size_t Wv) { return evalOverIn(CP.AccArg[Wv][J], El); },
                accZero(J));
          }
          std::vector<Sc> NextCtrl(NumCtrl);
          for (size_t K = 0; K != NumCtrl; ++K)
            NextCtrl[K] = selectByValuation(
                W.CtrlCur[V],
                [&](size_t Wv) { return evalOverIn(CP.CtrlStep[Wv][K], El); },
                W.CtrlCur[V][K]);
          for (size_t J = 0; J != NumAcc; ++J) {
            auto [M2, A2] =
                composeParam(CP.AccFlavors[J], W.Mode[V][J], W.Arg[V][J],
                             StepMode[J], StepArg[J]);
            W.Mode[V][J] = P.ite(InPrefix, M2, W.Mode[V][J]);
            W.Arg[V][J] = P.ite(InPrefix, A2, W.Arg[V][J]);
          }
          for (size_t K = 0; K != NumCtrl; ++K)
            W.CtrlCur[V][K] = P.ite(InPrefix, NextCtrl[K], W.CtrlCur[V][K]);
        }
      } else {
        W.PrefixEls.emplace_back(El, InPrefix);
      }

      State Stepped = lang::stepState(Prog, W.D, El, P);
      W.D = selectState(FoundNext, Stepped, W.D);
      W.Found = FoundNext;
    }
  }

  /// The conditional-prefix merge: threads the true state through the
  /// segment summaries from d0, one merge1() per worker.
  Sc mergeWorkers(const std::vector<WorkerResult<S>> &Workers) {
    State C = lang::initialState(Prog, P);
    for (const WorkerResult<S> &W : Workers)
      C = merge1(C, W);
    return lang::outputOf(Prog, C, P);
  }

  /// One merge step: carries the true state \p C across worker \p W's
  /// segment by the synthesized upd (or the re-folded prefix), one
  /// boundary application of f, and the per-flavor suffix combine. Also
  /// what the induction of EquivChecker proves equal to the serial fold.
  State merge1(const State &C, const WorkerResult<S> &W) {
    State Pre = C;
    if (Plan.Kind == Scenario::CondPrefixSummary) {
      Pre = applyUpd(C, W);
    } else {
      for (const auto &ElFlag : W.PrefixEls) {
        State Stepped = lang::stepState(Prog, Pre, ElFlag.first, P);
        Pre = selectState(ElFlag.second, Stepped, Pre);
      }
    }
    State T = lang::stepState(Prog, Pre, W.Boundary, P);
    State W0 =
        lang::stepState(Prog, lang::initialState(Prog, P), W.Boundary, P);
    State Comb = combineStates(T, W.D, W0);
    return selectState(W.Found, Comb, Pre);
  }

private:
  //===------------------------------------------------------------------===
  // No-prefix and constant-prefix scenarios.
  //===------------------------------------------------------------------===

  Sc runNoPrefix(const std::vector<std::vector<Sc>> &Segments) {
    std::vector<State> Partials = foldAll(Segments);
    return mergeAndOutput(Partials);
  }

  Sc runConstPrefix(const std::vector<std::vector<Sc>> &Segments) {
    std::vector<State> Partials = foldAll(Segments);
    // Repair d_i with the first PrefixLen elements of segment i+1.
    for (size_t I = 0; I + 1 < Partials.size(); ++I) {
      const std::vector<Sc> &Next = Segments[I + 1];
      size_t L = std::min<size_t>(Plan.PrefixLen, Next.size());
      for (size_t K = 0; K != L; ++K)
        Partials[I] = lang::stepState(Prog, Partials[I], Next[K], P);
    }
    return mergeAndOutput(Partials);
  }

  std::vector<State> foldAll(const std::vector<std::vector<Sc>> &Segments) {
    std::vector<State> Partials;
    Partials.reserve(Segments.size());
    for (const std::vector<Sc> &Seg : Segments)
      Partials.push_back(
          lang::foldSegment(Prog, lang::initialState(Prog, P), Seg, P));
    return Partials;
  }

  Sc mergeAndOutput(const std::vector<State> &Partials) {
    assert(!Partials.empty() && "need at least one segment");
    State Acc = Partials[0];
    for (size_t I = 1, E = Partials.size(); I != E; ++I)
      Acc = applyMerge(Acc, Partials[I]);
    return lang::outputOf(Prog, Acc, P);
  }

public:
  /// Binary merge step of the MergeFn. Public for the induction of
  /// EquivChecker, which merges symbolic states directly.
  State applyMerge(const State &A, const State &B) {
    const lang::StateLayout &Layout = Prog.State;
    ir::DomainEnv<S> Env;
    for (size_t I = 0, E = Layout.size(); I != E; ++I) {
      Env.emplace("a_" + Layout.field(I).Name, A[I]);
      Env.emplace("b_" + Layout.field(I).Name, B[I]);
    }
    State Out;
    Out.reserve(Layout.size());
    for (size_t I = 0, E = Layout.size(); I != E; ++I) {
      if (Plan.Merge.Refold && Layout.field(I).Ty == ir::TypeKind::Bag) {
        Out.push_back(ir::bagUnionVal(P, A[I], B[I]));
        continue;
      }
      assert(I < Plan.Merge.Combine.size() && Plan.Merge.Combine[I] &&
             "missing merge expression for field");
      Out.push_back(ir::evalExpr(Plan.Merge.Combine[I], Env, P));
    }
    return Out;
  }

private:
  //===------------------------------------------------------------------===
  // Conditional-prefix scenarios.
  //===------------------------------------------------------------------===

  Sc runCondPrefix(const std::vector<std::vector<Sc>> &Segments) {
    assert(!Prog.State.hasBag() &&
           "conditional-prefix plans do not support bag state");
    std::vector<WorkerResult<S>> Workers;
    Workers.reserve(Segments.size());
    for (const std::vector<Sc> &Seg : Segments)
      Workers.push_back(runWorker(Seg));
    return mergeWorkers(Workers);
  }

  Sc evalPrefixCond(const Sc &El) { return evalOverIn(Plan.Cond.PrefixCond, El); }

  /// Evaluates an expression over the single variable "in".
  Sc evalOverIn(const ir::ExprRef &E, const Sc &El) {
    ir::DomainEnv<S> Env;
    Env.emplace(lang::inputVarName(), DV::scalar(El));
    return ir::evalExpr(E, Env, P).Sc;
  }

  /// Constant for control field \p K with table value \p V.
  Sc ctrlConst(size_t K, int64_t V) {
    const lang::Field &F = Prog.State.field(Plan.Cond.CtrlFields[K]);
    return F.Ty == ir::TypeKind::Bool ? P.constBool(V != 0) : P.constInt(V);
  }

  /// Neutral placeholder argument for accumulator \p J.
  Sc accZero(size_t J) {
    const lang::Field &F = Prog.State.field(Plan.Cond.AccFields[J]);
    return F.Ty == ir::TypeKind::Bool ? P.constBool(false) : P.constInt(0);
  }

  /// Bool scalar: do the control scalars \p Ctrl equal valuation \p V?
  Sc matchValuation(const std::vector<Sc> &Ctrl, size_t V) {
    const CondPrefixInfo &CP = Plan.Cond;
    Sc M = P.constBool(true);
    for (size_t K = 0, E = CP.CtrlFields.size(); K != E; ++K) {
      const lang::Field &F = Prog.State.field(CP.CtrlFields[K]);
      Sc Want = ctrlConst(K, CP.CtrlValues[V][K]);
      Sc EqK = F.Ty == ir::TypeKind::Bool
                   ? P.ite(Ctrl[K], Want, P.lnot(Want))
                   : P.eq(Ctrl[K], Want);
      M = P.land(M, EqK);
    }
    return M;
  }

  /// Chain-select: picks Table(w) for the valuation w matching \p Ctrl.
  template <class TableFn>
  Sc selectByValuation(const std::vector<Sc> &Ctrl, TableFn Table,
                       Sc Default) {
    Sc Out = std::move(Default);
    for (size_t V = Plan.Cond.numValuations(); V-- > 0;)
      Out = P.ite(matchValuation(Ctrl, V), Table(V), Out);
    return Out;
  }

  Sc flavorOp(AccFlavor F, const Sc &A, const Sc &B) {
    switch (F) {
    case AccFlavor::Plus:
      return P.add(A, B);
    case AccFlavor::Max:
      return P.smax(A, B);
    case AccFlavor::Min:
      return P.smin(A, B);
    case AccFlavor::And:
      return P.land(A, B);
    case AccFlavor::Or:
      return P.lor(A, B);
    case AccFlavor::SetLike:
      return B;
    }
    assert(false && "bad flavor");
    return A;
  }

  /// Composition of parametric transforms: first (M1,A1), then (M2,A2).
  std::pair<Sc, Sc> composeParam(AccFlavor F, const Sc &M1, const Sc &A1,
                                 const Sc &M2, const Sc &A2) {
    Sc Zero = P.constInt(0), One = P.constInt(1), Two = P.constInt(2);
    Sc M2IsSet = P.eq(M2, One), M2IsId = P.eq(M2, Zero);
    Sc M1IsId = P.eq(M1, Zero), M1IsSet = P.eq(M1, One);
    Sc M = P.ite(M2IsSet, One,
                 P.ite(M2IsId, M1, P.ite(M1IsSet, One, Two)));
    Sc A = P.ite(M2IsSet, A2,
                 P.ite(M2IsId, A1,
                       P.ite(M1IsId, A2, flavorOp(F, A1, A2))));
    return {M, A};
  }

  /// Applies transform (M, A) of flavor \p F to current value \p Cur.
  Sc applyParam(AccFlavor F, const Sc &M, const Sc &A, const Sc &Cur) {
    Sc Zero = P.constInt(0), One = P.constInt(1);
    return P.ite(P.eq(M, Zero), Cur, P.ite(P.eq(M, One), A, flavorOp(F, Cur, A)));
  }

public:
  /// The synthesized upd: applies worker \p W's prefix summary to state C.
  /// Public so the runtime and the upd-materializer reuse it.
  State applyUpd(const State &C, const WorkerResult<S> &W) {
    const CondPrefixInfo &CP = Plan.Cond;
    std::vector<Sc> Ctrl;
    Ctrl.reserve(CP.CtrlFields.size());
    for (size_t K = 0, E = CP.CtrlFields.size(); K != E; ++K)
      Ctrl.push_back(C[CP.CtrlFields[K]].Sc);

    State Out = C;
    for (size_t K = 0, E = CP.CtrlFields.size(); K != E; ++K) {
      Sc NewV = selectByValuation(
          Ctrl, [&](size_t V) { return W.CtrlCur[V][K]; }, Ctrl[K]);
      Out[CP.CtrlFields[K]] = DV::scalar(NewV);
    }
    for (size_t J = 0, E = CP.AccFields.size(); J != E; ++J) {
      Sc Cur = C[CP.AccFields[J]].Sc;
      Sc NewV = selectByValuation(
          Ctrl,
          [&](size_t V) {
            return applyParam(CP.AccFlavors[J], W.Mode[V][J], W.Arg[V][J],
                              Cur);
          },
          Cur);
      Out[CP.AccFields[J]] = DV::scalar(NewV);
    }
    return Out;
  }

  /// Suffix combine at a boundary: true pre-boundary state \p T, worker
  /// result \p D, worker baseline \p W0 (= f(d0, boundary)).
  State combineStates(const State &T, const State &D, const State &W0) {
    const CondPrefixInfo &CP = Plan.Cond;
    State Out = D; // control fields and SetLike accumulators take D.
    for (size_t J = 0, E = CP.AccFields.size(); J != E; ++J) {
      size_t F = CP.AccFields[J];
      const Sc &Tv = T[F].Sc;
      const Sc &Dv = D[F].Sc;
      const Sc &Zv = W0[F].Sc;
      Sc R = Dv;
      switch (CP.AccFlavors[J]) {
      case AccFlavor::Plus:
        R = P.add(Tv, P.sub(Dv, Zv));
        break;
      case AccFlavor::Max:
        R = P.smax(Tv, Dv);
        break;
      case AccFlavor::Min:
        R = P.smin(Tv, Dv);
        break;
      case AccFlavor::And:
        R = P.land(Tv, P.lor(P.lnot(Zv), Dv));
        break;
      case AccFlavor::Or:
        R = P.lor(Tv, P.land(Dv, P.lnot(Zv)));
        break;
      case AccFlavor::SetLike:
        R = Dv;
        break;
      }
      Out[F] = DV::scalar(R);
    }
    return Out;
  }

private:
  /// Branch-free state select.
  State selectState(const Sc &Cond, const State &A, const State &B) {
    State Out;
    Out.reserve(A.size());
    for (size_t I = 0, E = A.size(); I != E; ++I)
      Out.push_back(ir::selectValue(P, Cond, A[I], B[I]));
    return Out;
  }

  const lang::SerialProgram &Prog;
  const ParallelPlan &Plan;
  S &P;
};

/// Convenience: concretely runs \p Plan over int64 segments.
int64_t runPlanConcrete(const lang::SerialProgram &Prog,
                        const ParallelPlan &Plan,
                        const std::vector<std::vector<int64_t>> &Segments);

} // namespace synth
} // namespace grassp

#endif // GRASSP_SYNTH_PLANEVAL_H
