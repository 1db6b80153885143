//===- synth/EquivCheck.cpp ------------------------------------------------=//

#include "synth/EquivCheck.h"

#include "lang/Interp.h"
#include "smt/Solver.h"
#include "support/Random.h"
#include "synth/PlanEval.h"

#include <algorithm>

using namespace grassp::ir;

namespace grassp {
namespace synth {

const char *proofRouteName(ProofRoute R) {
  switch (R) {
  case ProofRoute::Induction:
    return "induction";
  case ProofRoute::BoundedBase:
    return "bounded:base";
  case ProofRoute::BoundedStep:
    return "bounded:step";
  case ProofRoute::BoundedUnknown:
    return "bounded:unknown";
  case ProofRoute::BoundedCancelled:
    return "bounded:cancelled";
  case ProofRoute::BoundedBag:
    return "bounded:bag";
  case ProofRoute::BoundedRefold:
    return "bounded:refold";
  case ProofRoute::BoundedPrefix:
    return "bounded:prefix";
  }
  return "?";
}

namespace {

using SymState = lang::StateVec<SymbolicPolicy>;

/// A state of fresh variables "<Prefix><field>".
SymState freshState(const lang::SerialProgram &Prog,
                    const std::string &Prefix) {
  SymState St;
  for (const lang::Field &F : Prog.State.fields())
    St.push_back(
        DomainValue<SymbolicPolicy>::scalar(var(Prefix + F.Name, F.Ty)));
  return St;
}

/// The conjunction of \p Atoms (over field names) on state \p St.
template <class S>
typename S::Scalar holdsOn(const lang::SerialProgram &Prog,
                           const std::vector<ExprRef> &Atoms,
                           const lang::StateVec<S> &St, S &P) {
  DomainEnv<S> Env = lang::bindState<S>(Prog.State, St);
  typename S::Scalar All = P.constBool(true);
  for (const ExprRef &A : Atoms)
    All = P.land(All, evalExpr(A, Env, P).Sc);
  return All;
}

ExprRef sameState(const SymState &A, const SymState &B) {
  ExprRef All = constBool(true);
  for (size_t I = 0, E = A.size(); I != E; ++I)
    All = land(All, eq(A[I].Sc, B[I].Sc));
  return All;
}

/// Houdini's candidates, over the Int fields: bounds by the initial
/// value, by 0 and by 1, and every ordered pair.
std::vector<ExprRef> candidateAtoms(const lang::SerialProgram &Prog) {
  std::vector<ExprRef> Atoms;
  std::vector<std::string> Seen;
  auto Add = [&](ExprRef A) {
    std::string Key = toString(A);
    if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end())
      return;
    Seen.push_back(std::move(Key));
    Atoms.push_back(std::move(A));
  };
  const lang::StateLayout &L = Prog.State;
  for (size_t I = 0, E = L.size(); I != E; ++I) {
    if (L.field(I).Ty != TypeKind::Int)
      continue;
    ExprRef F = L.fieldVar(I);
    Add(ge(F, constInt(L.field(I).InitInt)));
    Add(le(F, constInt(L.field(I).InitInt)));
    Add(ge(F, constInt(0)));
    Add(ge(F, constInt(1)));
    for (size_t J = 0; J != E; ++J)
      if (J != I && L.field(J).Ty == TypeKind::Int)
        Add(ge(F, L.fieldVar(J)));
  }
  return Atoms;
}

/// States reached from d0 by one or two representative inputs: an atom
/// that fails on one of them is no invariant, and is dropped without a
/// query.
std::vector<lang::StateVec<ConcretePolicy>>
sampleStates(const lang::SerialProgram &Prog) {
  ConcretePolicy P;
  std::vector<int64_t> Reps = Prog.representativeInputs();
  lang::StateVec<ConcretePolicy> D0 = lang::initialState(Prog, P);
  std::vector<lang::StateVec<ConcretePolicy>> Out;
  for (int64_t X : Reps) {
    lang::StateVec<ConcretePolicy> One = lang::stepState(Prog, D0, X, P);
    for (int64_t Y : Reps)
      Out.push_back(lang::stepState(Prog, One, Y, P));
    Out.push_back(std::move(One));
  }
  return Out;
}

} // namespace

EquivChecker::EquivChecker(const lang::SerialProgram &Prog) : Prog(Prog) {}
EquivChecker::~EquivChecker() = default;

void EquivChecker::addEntry(Segments Segs) {
  CorpusEntry E;
  E.Expected = lang::runSerialSegmented(Prog, Segs);
  E.Segs = std::move(Segs);
  Corpus.push_back(std::move(E));
}

void EquivChecker::seedCorpus(unsigned NumRandom, uint64_t Seed) {
  Rng R(Seed);
  std::vector<int64_t> Reps = Prog.representativeInputs();

  auto RandomSegs = [&](bool FromReps) {
    unsigned M = static_cast<unsigned>(R.range(1, 4));
    Segments Segs(M);
    for (auto &S : Segs) {
      unsigned Len = static_cast<unsigned>(R.range(1, 4));
      S = FromReps ? randomFromAlphabet(R, Reps, Len)
                   : randomInRange(R, Prog.GenLo, Prog.GenHi, Len);
    }
    return Segs;
  };

  for (unsigned I = 0; I != NumRandom; ++I)
    addEntry(RandomSegs(/*FromReps=*/I % 2 == 0));

  // Crafted entries that exercise boundary-sensitive behaviors: constant
  // streams, sorted streams, and rep-alternations — these give the
  // corpus positive instances of predicates like "all equal"/"is sorted"
  // that random data essentially never produces.
  for (unsigned Trial = 0; Trial != 8; ++Trial) {
    int64_t C = Reps[R.next() % Reps.size()];
    Segments Const(2 + Trial % 2);
    for (auto &S : Const)
      S.assign(1 + R.next() % 3, C);
    addEntry(std::move(Const));

    Segments Sorted(2);
    int64_t Base = R.range(-5, 5);
    for (auto &S : Sorted) {
      unsigned Len = 1 + R.next() % 3;
      for (unsigned K = 0; K != Len; ++K) {
        S.push_back(Base);
        Base += R.range(0, 2);
      }
    }
    addEntry(std::move(Sorted));

    Segments Alt(2);
    int64_t Bit = static_cast<int64_t>(Trial % 2);
    for (auto &S : Alt) {
      unsigned Len = 1 + R.next() % 4;
      for (unsigned K = 0; K != Len; ++K) {
        S.push_back(Bit);
        Bit = 1 - Bit;
      }
    }
    addEntry(std::move(Alt));
  }
}

void EquivChecker::addCounterexample(const Segments &Segs) {
  addEntry(Segs);
}

bool EquivChecker::passesCorpus(const ParallelPlan &Plan) const {
  for (const CorpusEntry &E : Corpus)
    if (runPlanConcrete(Prog, Plan, E.Segs) != E.Expected)
      return false;
  return true;
}

smt::SatResult EquivChecker::checkQuery(const ExprRef &Query,
                                        const VerifyOptions &Opts) {
  if (Query->isConstBool())
    return Query->boolValue() ? smt::SatResult::Sat : smt::SatResult::Unsat;
  if (!Solver)
    Solver = std::make_unique<smt::SmtSolver>();
  Solver->push();
  Solver->add(Query);
  ++SmtChecks;
  smt::SatResult R = Solver->check(Opts.SmtTimeoutMs, Opts.Token);
  Solver->pop();
  Solver->releaseTerms();
  return R;
}

bool EquivChecker::computeInvariant(const VerifyOptions &Opts) {
  std::vector<ExprRef> Atoms = candidateAtoms(Prog);
  ConcretePolicy CP;
  for (const lang::StateVec<ConcretePolicy> &St : sampleStates(Prog))
    std::erase_if(Atoms, [&](const ExprRef &A) {
      return holdsOn(Prog, {A}, St, CP) == 0;
    });

  SymbolicPolicy P;
  SymState S = freshState(Prog, "inv_s_");
  ExprRef X = var("inv_x", TypeKind::Int);
  SymState First = lang::stepState(Prog, lang::initialState(Prog, P), X, P);
  SymState Next = lang::stepState(Prog, S, X, P);
  // Drops every atom for which \p Refutes(A) has a model (or no verdict);
  // true when some atom was dropped.
  bool Fired = false;
  auto DropRefuted = [&](auto Refutes) {
    size_t Before = Atoms.size();
    for (size_t K = 0; K != Atoms.size() && !Fired;) {
      smt::SatResult R = checkQuery(Refutes(Atoms[K]), Opts);
      Fired = R == smt::SatResult::Cancelled;
      if (R == smt::SatResult::Unsat)
        ++K;
      else
        Atoms.erase(Atoms.begin() + K);
    }
    return Atoms.size() != Before;
  };
  // Initiation: the atom holds after the first step from d0.
  DropRefuted([&](const ExprRef &A) {
    return lnot(holdsOn(Prog, {A}, First, P));
  });
  // Consecution, to the greatest fixed point.
  auto NotPreserved = [&](const ExprRef &A) {
    return land(holdsOn(Prog, Atoms, S, P),
                lnot(holdsOn(Prog, {A}, Next, P)));
  };
  while (!Fired && DropRefuted(NotPreserved))
    ;
  if (Fired)
    return false;
  Invariant = std::move(Atoms);
  return true;
}

ProofRoute EquivChecker::proveByInduction(const ParallelPlan &Plan,
                                          const VerifyOptions &Opts) {
  if (Plan.Kind != Scenario::NoPrefix)
    return ProofRoute::BoundedPrefix;
  if (Prog.State.hasBag())
    return ProofRoute::BoundedBag;
  if (Plan.Merge.Refold)
    return ProofRoute::BoundedRefold;
  if (Opts.Token.cancelled() || (!Invariant && !computeInvariant(Opts)))
    return ProofRoute::BoundedCancelled;

  SymbolicPolicy P;
  PlanExecutor<SymbolicPolicy> Exec(Prog, Plan, P);
  SymState A = freshState(Prog, "ind_a_");
  SymState B = freshState(Prog, "ind_b_");
  ExprRef X = var("ind_x", TypeKind::Int);
  SymState First = lang::stepState(Prog, lang::initialState(Prog, P), X, P);
  ExprRef InvA = holdsOn(Prog, *Invariant, A, P);
  ExprRef InvB = holdsOn(Prog, *Invariant, B, P);

  ExprRef Base = land(InvA, lnot(sameState(lang::stepState(Prog, A, X, P),
                                           Exec.applyMerge(A, First))));
  ExprRef Step =
      land(land(InvA, InvB),
           lnot(sameState(lang::stepState(Prog, Exec.applyMerge(A, B), X, P),
                          Exec.applyMerge(A, lang::stepState(Prog, B, X, P)))));
  for (auto [Query, Fails] : {std::pair{Base, ProofRoute::BoundedBase},
                              std::pair{Step, ProofRoute::BoundedStep}}) {
    switch (checkQuery(Query, Opts)) {
    case smt::SatResult::Unsat:
      continue;
    case smt::SatResult::Sat:
      return Fails;
    case smt::SatResult::Unknown:
      return ProofRoute::BoundedUnknown;
    case smt::SatResult::Cancelled:
      return ProofRoute::BoundedCancelled;
    }
  }
  return ProofRoute::Induction;
}

Verdict EquivChecker::verify(const ParallelPlan &Plan,
                             const VerifyOptions &Opts, Segments *CexOut,
                             ProofRoute *RouteOut) {
  ProofRoute Route = proveByInduction(Plan, Opts);
  if (RouteOut)
    *RouteOut = Route;
  if (Route == ProofRoute::Induction)
    return Verdict::Equivalent;
  if (Route == ProofRoute::BoundedCancelled)
    return Verdict::Cancelled;
  return verifyBounded(Plan, Opts, CexOut);
}

Verdict EquivChecker::verifyBounded(const ParallelPlan &Plan,
                                    const VerifyOptions &Opts,
                                    Segments *CexOut) {
  // Enumerate segment shapes, cheapest first.
  std::vector<std::vector<unsigned>> Shapes;
  for (unsigned M = Opts.MinSegments; M <= Opts.MaxSegments; ++M) {
    std::vector<unsigned> Lens(M, 1);
    for (;;) {
      Shapes.push_back(Lens);
      size_t I = 0;
      for (; I != M; ++I) {
        if (++Lens[I] <= Opts.MaxLen)
          break;
        Lens[I] = 1;
      }
      if (I == M)
        break;
    }
  }
  std::stable_sort(Shapes.begin(), Shapes.end(),
                   [](const std::vector<unsigned> &A,
                      const std::vector<unsigned> &B) {
                     unsigned SA = 0, SB = 0;
                     for (unsigned X : A)
                       SA += X;
                     for (unsigned X : B)
                       SB += X;
                     return SA < SB;
                   });

  for (const std::vector<unsigned> &Shape : Shapes) {
    if (Opts.Token.cancelled())
      return Verdict::Cancelled;
    ir::SymbolicPolicy P;
    // Fresh element variables.
    std::vector<std::vector<ExprRef>> SymSegs;
    std::vector<std::string> Names;
    for (size_t I = 0; I != Shape.size(); ++I) {
      std::vector<ExprRef> Seg;
      for (unsigned J = 0; J != Shape[I]; ++J) {
        std::string Name =
            "e_" + std::to_string(I) + "_" + std::to_string(J);
        Names.push_back(Name);
        Seg.push_back(var(Name, TypeKind::Int));
      }
      SymSegs.push_back(std::move(Seg));
    }

    // Serial output over the concatenation.
    lang::StateVec<ir::SymbolicPolicy> St = lang::initialState(Prog, P);
    for (const auto &Seg : SymSegs)
      St = lang::foldSegment(Prog, std::move(St), Seg, P);
    ExprRef SerialOut = lang::outputOf(Prog, St, P);

    // Parallel output.
    PlanExecutor<ir::SymbolicPolicy> Exec(Prog, Plan, P);
    ExprRef PlanOut = Exec.run(SymSegs);

    ExprRef Diff = ne(SerialOut, PlanOut);
    if (Diff->isConstBool()) {
      if (!Diff->boolValue())
        continue; // syntactically identical: trivially equivalent shape.
    }

    if (!Solver)
      Solver = std::make_unique<smt::SmtSolver>();
    Solver->push();
    Solver->add(Diff);
    ++SmtChecks;
    smt::SatResult R = Solver->check(Opts.SmtTimeoutMs, Opts.Token);
    if (R == smt::SatResult::Unknown) {
      // The incremental core gave up within its budget; the default
      // pipeline on a fresh solver settles some of those queries.
      ++SmtFallbacks;
      R = Solver->recheckFresh(Opts.SmtTimeoutMs, Opts.Token);
    }
    Segments Cex;
    if (R == smt::SatResult::Sat) {
      size_t NameIdx = 0;
      for (size_t I = 0; I != Shape.size(); ++I) {
        std::vector<int64_t> Seg;
        for (unsigned J = 0; J != Shape[I]; ++J)
          Seg.push_back(Solver->modelInt(Names[NameIdx++]));
        Cex.push_back(std::move(Seg));
      }
    }
    Solver->pop();
    Solver->releaseTerms();

    switch (R) {
    case smt::SatResult::Unsat:
      continue;
    case smt::SatResult::Unknown:
      return Verdict::Unknown;
    case smt::SatResult::Cancelled:
      return Verdict::Cancelled;
    case smt::SatResult::Sat:
      addCounterexample(Cex);
      if (CexOut)
        *CexOut = std::move(Cex);
      return Verdict::Refuted;
    }
  }
  return Verdict::Equivalent;
}

} // namespace synth
} // namespace grassp
