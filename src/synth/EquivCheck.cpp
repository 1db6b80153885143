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
using SymEnv = DomainEnv<SymbolicPolicy>;

/// A state of fresh variables "<Prefix><field>".
SymState freshState(const lang::SerialProgram &Prog,
                    const std::string &Prefix) {
  SymState St;
  for (const lang::Field &F : Prog.State.fields())
    St.push_back(
        DomainValue<SymbolicPolicy>::scalar(var(Prefix + F.Name, F.Ty)));
  return St;
}

/// The conjunction of \p Atoms over the names bound in \p Env.
template <class S>
typename S::Scalar holdsIn(const std::vector<ExprRef> &Atoms,
                           const DomainEnv<S> &Env, S &P) {
  typename S::Scalar All = P.constBool(true);
  for (const ExprRef &A : Atoms)
    All = P.land(All, evalExpr(A, Env, P).Sc);
  return All;
}

/// The conjunction of \p Atoms (over field names) on state \p St.
template <class S>
typename S::Scalar holdsOn(const lang::SerialProgram &Prog,
                           const std::vector<ExprRef> &Atoms,
                           const lang::StateVec<S> &St, S &P) {
  return holdsIn(Atoms, lang::bindState<S>(Prog.State, St), P);
}

/// Drops every atom that is false in one of the concrete \p Samples.
void dropFailing(std::vector<ExprRef> &Atoms,
                 const std::vector<DomainEnv<ConcretePolicy>> &Samples) {
  ConcretePolicy CP;
  for (const DomainEnv<ConcretePolicy> &Env : Samples)
    std::erase_if(Atoms, [&](const ExprRef &A) {
      return evalExpr(A, Env, CP).Sc == 0;
    });
}

ExprRef sameState(const SymState &A, const SymState &B) {
  ExprRef All = constBool(true);
  for (size_t I = 0, E = A.size(); I != E; ++I)
    All = land(All, eq(A[I].Sc, B[I].Sc));
  return All;
}

/// Appends \p A to \p Atoms unless an atom that prints the same is there.
void addAtom(std::vector<ExprRef> &Atoms, ExprRef A) {
  std::string Key = toString(A);
  for (const ExprRef &B : Atoms)
    if (toString(B) == Key)
      return;
  Atoms.push_back(std::move(A));
}

/// Houdini's candidates, over the Int fields: bounds by the initial
/// value, by 0 and by 1, and every ordered pair.
std::vector<ExprRef> candidateAtoms(const lang::SerialProgram &Prog) {
  std::vector<ExprRef> Atoms;
  const lang::StateLayout &L = Prog.State;
  for (size_t I = 0, E = L.size(); I != E; ++I) {
    if (L.field(I).Ty != TypeKind::Int)
      continue;
    ExprRef F = L.fieldVar(I);
    addAtom(Atoms, ge(F, constInt(L.field(I).InitInt)));
    addAtom(Atoms, le(F, constInt(L.field(I).InitInt)));
    addAtom(Atoms, ge(F, constInt(0)));
    addAtom(Atoms, ge(F, constInt(1)));
    for (size_t J = 0; J != E; ++J)
      if (J != I && L.field(J).Ty == TypeKind::Int)
        addAtom(Atoms, ge(F, L.fieldVar(J)));
  }
  return Atoms;
}

/// Field \p I's value in d0, as a constant.
ExprRef initialValue(const lang::StateLayout &L, size_t I) {
  const lang::Field &F = L.field(I);
  return F.Ty == TypeKind::Bool ? constBool(F.InitInt != 0)
                                : constInt(F.InitInt);
}

/// The carry invariant's plan-independent candidates: the Int atoms, and
/// for each Bool field b: b, !b, and b \/ f = d0.f for every other field.
std::vector<ExprRef> carryAtoms(const lang::SerialProgram &Prog) {
  std::vector<ExprRef> Atoms = candidateAtoms(Prog);
  const lang::StateLayout &L = Prog.State;
  for (size_t I = 0, E = L.size(); I != E; ++I) {
    if (L.field(I).Ty != TypeKind::Bool)
      continue;
    ExprRef B = L.fieldVar(I);
    addAtom(Atoms, B);
    addAtom(Atoms, lnot(B));
    for (size_t J = 0; J != E; ++J)
      if (J != I)
        addAtom(Atoms, lor(B, eq(L.fieldVar(J), initialValue(L, J))));
  }
  return Atoms;
}

/// "The control tuple \p Ctrl is one of the plan's CtrlValues".
ExprRef ctrlAmongValues(const lang::SerialProgram &Prog,
                        const CondPrefixInfo &CP,
                        const std::vector<ExprRef> &Ctrl) {
  ExprRef Any = constBool(false);
  for (const std::vector<int64_t> &Val : CP.CtrlValues) {
    ExprRef All = constBool(true);
    for (size_t K = 0, E = CP.CtrlFields.size(); K != E; ++K)
      All = land(All, eq(Ctrl[K], Prog.State.field(CP.CtrlFields[K]).Ty ==
                                          TypeKind::Bool
                                      ? constBool(Val[K] != 0)
                                      : constInt(Val[K])));
    Any = lor(Any, All);
  }
  return Any;
}

/// Names of a worker result's scalars in the worker invariant's atoms.
std::string workerName(const char *What, size_t J, size_t V) {
  return std::string("w_") + What + std::to_string(J) + "_v" +
         std::to_string(V);
}
std::string workerStateName(const lang::StateLayout &L, size_t I) {
  return "w_d_" + L.field(I).Name;
}

/// Binds worker result \p W's scalars to their names.
template <class S>
DomainEnv<S> bindWorker(const lang::SerialProgram &Prog,
                        const CondPrefixInfo &CP, const WorkerResult<S> &W) {
  using DV = DomainValue<S>;
  DomainEnv<S> Env;
  Env.emplace("w_found", DV::scalar(W.Found));
  Env.emplace("w_bnd", DV::scalar(W.Boundary));
  for (size_t I = 0, E = Prog.State.size(); I != E; ++I)
    Env.emplace(workerStateName(Prog.State, I), W.D[I]);
  for (size_t V = 0, NV = CP.numValuations(); V != NV; ++V) {
    for (size_t K = 0, E = CP.CtrlFields.size(); K != E; ++K)
      Env.emplace(workerName("ctrl", K, V), DV::scalar(W.CtrlCur[V][K]));
    for (size_t J = 0, E = CP.AccFields.size(); J != E; ++J) {
      Env.emplace(workerName("mode", J, V), DV::scalar(W.Mode[V][J]));
      Env.emplace(workerName("arg", J, V), DV::scalar(W.Arg[V][J]));
    }
  }
  return Env;
}

/// A worker result of fresh variables, named as bindWorker() binds them.
WorkerResult<SymbolicPolicy> freshWorker(const lang::SerialProgram &Prog,
                                         const CondPrefixInfo &CP) {
  const lang::StateLayout &L = Prog.State;
  WorkerResult<SymbolicPolicy> W;
  W.Found = var("w_found", TypeKind::Bool);
  W.Boundary = var("w_bnd", TypeKind::Int);
  for (size_t I = 0, E = L.size(); I != E; ++I)
    W.D.push_back(DomainValue<SymbolicPolicy>::scalar(
        var(workerStateName(L, I), L.field(I).Ty)));
  size_t NV = CP.numValuations();
  W.CtrlCur.resize(NV);
  W.Mode.resize(NV);
  W.Arg.resize(NV);
  for (size_t V = 0; V != NV; ++V) {
    for (size_t K = 0, E = CP.CtrlFields.size(); K != E; ++K)
      W.CtrlCur[V].push_back(
          var(workerName("ctrl", K, V), L.field(CP.CtrlFields[K]).Ty));
    for (size_t J = 0, E = CP.AccFields.size(); J != E; ++J) {
      W.Mode[V].push_back(var(workerName("mode", J, V), TypeKind::Int));
      W.Arg[V].push_back(
          var(workerName("arg", J, V), L.field(CP.AccFields[J]).Ty));
    }
  }
  return W;
}

/// The worker invariant's candidates: D stays d0 until the boundary, and
/// satisfies every carry atom after it; the boundary satisfies
/// prefix_cond; each tracked control tuple is one of CtrlValues; and
/// bounds on each accumulator transform's mode and argument.
std::vector<ExprRef> workerAtoms(const lang::SerialProgram &Prog,
                                 const CondPrefixInfo &CP,
                                 const std::vector<ExprRef> &Carry) {
  const lang::StateLayout &L = Prog.State;
  std::vector<ExprRef> Atoms;
  ExprRef Found = var("w_found", TypeKind::Bool);
  std::map<std::string, ExprRef> ToD;
  for (size_t I = 0, E = L.size(); I != E; ++I) {
    ExprRef D = var(workerStateName(L, I), L.field(I).Ty);
    addAtom(Atoms, lor(Found, eq(D, initialValue(L, I))));
    ToD.emplace(L.field(I).Name, D);
  }
  for (const ExprRef &A : Carry)
    addAtom(Atoms, lor(lnot(Found), substitute(A, ToD)));
  addAtom(Atoms,
          lor(lnot(Found),
              substitute(CP.PrefixCond, {{lang::inputVarName(),
                                          var("w_bnd", TypeKind::Int)}})));
  for (size_t V = 0, NV = CP.numValuations(); V != NV; ++V) {
    std::vector<ExprRef> Ctrl;
    for (size_t K = 0, E = CP.CtrlFields.size(); K != E; ++K)
      Ctrl.push_back(
          var(workerName("ctrl", K, V), L.field(CP.CtrlFields[K]).Ty));
    addAtom(Atoms, ctrlAmongValues(Prog, CP, Ctrl));
    for (size_t J = 0, E = CP.AccFields.size(); J != E; ++J) {
      ExprRef M = var(workerName("mode", J, V), TypeKind::Int);
      for (int64_t Hi : {0, 1, 2})
        addAtom(Atoms, le(M, constInt(Hi)));
      addAtom(Atoms, ge(M, constInt(0)));
      ExprRef A = var(workerName("arg", J, V), L.field(CP.AccFields[J]).Ty);
      if (L.field(CP.AccFields[J]).Ty == TypeKind::Bool) {
        addAtom(Atoms, A);
        addAtom(Atoms, lnot(A));
        continue;
      }
      addAtom(Atoms, ge(A, constInt(0)));
      addAtom(Atoms, ge(A, constInt(1)));
      addAtom(Atoms, le(A, constInt(0)));
    }
  }
  return Atoms;
}

/// Inputs over the representative elements, shortest first: the empty
/// one, then all of length 1, 2 and 3, at most 512 in all.
std::vector<std::vector<int64_t>>
representativeRuns(const lang::SerialProgram &Prog) {
  std::vector<int64_t> Reps = Prog.representativeInputs();
  std::vector<std::vector<int64_t>> Runs{{}};
  for (size_t Lo = 0; Lo != Runs.size() && Runs[Lo].size() != 3; ++Lo)
    for (int64_t X : Reps) {
      if (Runs.size() == 512)
        return Runs;
      std::vector<int64_t> Next = Runs[Lo];
      Next.push_back(X);
      Runs.push_back(std::move(Next));
    }
  return Runs;
}

/// Houdini: drops from \p Atoms (over the names the environments bind)
/// every atom that fails in \p Init, then, to the greatest fixed point,
/// every atom not preserved from \p Cur to \p Next while all kept atoms
/// hold in \p Cur. \p Check settles one query (Sat: it has a model); an
/// atom without a verdict is dropped. False when the token fired.
template <class CheckFn>
bool houdini(std::vector<ExprRef> &Atoms, const SymEnv &Init,
             const SymEnv &Cur, const SymEnv &Next, CheckFn Check) {
  SymbolicPolicy P;
  // Drops every atom for which \p Refutes(A) has a model (or no verdict);
  // true when some atom was dropped.
  bool Fired = false;
  auto DropRefuted = [&](auto Refutes) {
    size_t Before = Atoms.size();
    for (size_t K = 0; K != Atoms.size() && !Fired;) {
      smt::SatResult R = Check(Refutes(Atoms[K]));
      Fired = R == smt::SatResult::Cancelled;
      if (R == smt::SatResult::Unsat)
        ++K;
      else
        Atoms.erase(Atoms.begin() + K);
    }
    return Atoms.size() != Before;
  };
  DropRefuted([&](const ExprRef &A) { return lnot(holdsIn({A}, Init, P)); });
  auto NotPreserved = [&](const ExprRef &A) {
    return land(holdsIn(Atoms, Cur, P), lnot(holdsIn({A}, Next, P)));
  };
  // Most survivors of the concrete samples are preserved, so one query
  // for all of them usually settles a round.
  auto Settled = [&] {
    smt::SatResult R = Check(
        land(holdsIn(Atoms, Cur, P), lnot(holdsIn(Atoms, Next, P))));
    Fired = R == smt::SatResult::Cancelled;
    return Fired || R == smt::SatResult::Unsat;
  };
  while (!Fired && !Settled() && DropRefuted(NotPreserved))
    ;
  return !Fired;
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

std::optional<std::vector<ExprRef>>
EquivChecker::invariantOf(std::vector<ExprRef> Atoms, bool FromD0,
                          const VerifyOptions &Opts) {
  ConcretePolicy CP;
  std::vector<DomainEnv<ConcretePolicy>> Samples;
  for (const std::vector<int64_t> &Run : representativeRuns(Prog))
    if (FromD0 || !Run.empty())
      Samples.push_back(lang::bindState(
          Prog.State,
          lang::foldSegment(Prog, lang::initialState(Prog, CP), Run, CP)));
  dropFailing(Atoms, Samples);

  SymbolicPolicy P;
  SymState S = freshState(Prog, "inv_s_");
  ExprRef X = var("inv_x", TypeKind::Int);
  SymState Init = lang::initialState(Prog, P);
  if (!FromD0)
    Init = lang::stepState(Prog, Init, X, P);
  if (!houdini(Atoms, lang::bindState(Prog.State, Init),
               lang::bindState(Prog.State, S),
               lang::bindState(Prog.State, lang::stepState(Prog, S, X, P)),
               [&](const ExprRef &Q) { return checkQuery(Q, Opts); }))
    return std::nullopt;
  return Atoms;
}

ProofRoute EquivChecker::settle(const ExprRef &Base, const ExprRef &Step,
                                const VerifyOptions &Opts) {
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

ProofRoute EquivChecker::proveByInduction(const ParallelPlan &Plan,
                                          const VerifyOptions &Opts) {
  if (Plan.Kind == Scenario::ConstPrefix ||
      Plan.Kind == Scenario::CondPrefixRefold)
    return ProofRoute::BoundedPrefix;
  if (Prog.State.hasBag())
    return ProofRoute::BoundedBag;
  if (Plan.Merge.Refold)
    return ProofRoute::BoundedRefold;
  if (Opts.Token.cancelled())
    return ProofRoute::BoundedCancelled;
  if (Plan.Kind == Scenario::CondPrefixSummary)
    return proveCondPrefix(Plan, Opts);
  if (!Invariant)
    Invariant = invariantOf(candidateAtoms(Prog), /*FromD0=*/false, Opts);
  if (!Invariant)
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
  return settle(Base, Step, Opts);
}

ProofRoute EquivChecker::proveCondPrefix(const ParallelPlan &Plan,
                                         const VerifyOptions &Opts) {
  if (!CarryInvariant)
    CarryInvariant = invariantOf(carryAtoms(Prog), /*FromD0=*/true, Opts);
  if (!CarryInvariant)
    return ProofRoute::BoundedCancelled;
  const CondPrefixInfo &CP = Plan.Cond;
  const lang::StateLayout &L = Prog.State;
  SymbolicPolicy P;
  PlanExecutor<SymbolicPolicy> Exec(Prog, Plan, P);
  SymState C = freshState(Prog, "ind_c_");
  ExprRef X = var("ind_x", TypeKind::Int);

  // InvC: the cached atoms, plus "the control tuple is one of CtrlValues"
  // if it is inductive by itself (control steps read no accumulator).
  auto Check = [&](const ExprRef &Q) { return checkQuery(Q, Opts); };
  std::vector<ExprRef> CtrlVars;
  for (size_t K : CP.CtrlFields)
    CtrlVars.push_back(L.fieldVar(K));
  std::vector<ExprRef> InvC{ctrlAmongValues(Prog, CP, CtrlVars)};
  SymState S = freshState(Prog, "inv_s_");
  if (!houdini(InvC, lang::bindState(L, lang::initialState(Prog, P)),
               lang::bindState(L, S),
               lang::bindState(L, lang::stepState(Prog, S, X, P)), Check))
    return ProofRoute::BoundedCancelled;
  InvC.insert(InvC.begin(), CarryInvariant->begin(), CarryInvariant->end());

  // InvW: Houdini over the worker's own fold, from w0 = runWorker({}),
  // after dropping the atoms that fail on sampled workers.
  std::vector<ExprRef> InvW = workerAtoms(Prog, CP, InvC);
  {
    ConcretePolicy CPol;
    PlanExecutor<ConcretePolicy> Conc(Prog, Plan, CPol);
    std::vector<DomainEnv<ConcretePolicy>> Samples;
    for (const std::vector<int64_t> &Run : representativeRuns(Prog))
      Samples.push_back(bindWorker(Prog, CP, Conc.runWorker(Run)));
    dropFailing(InvW, Samples);
  }
  WorkerResult<SymbolicPolicy> W0 = Exec.runWorker({});
  WorkerResult<SymbolicPolicy> W = freshWorker(Prog, CP);
  WorkerResult<SymbolicPolicy> W1 = W;
  Exec.stepWorker(W1, X);
  SymEnv EnvW = bindWorker(Prog, CP, W);
  if (!houdini(InvW, bindWorker(Prog, CP, W0), EnvW,
               bindWorker(Prog, CP, W1), Check))
    return ProofRoute::BoundedCancelled;

  ExprRef InvCC = holdsOn(Prog, InvC, C, P);
  ExprRef Base = land(InvCC, lnot(sameState(Exec.merge1(C, W0), C)));
  ExprRef Step = land(
      land(InvCC, holdsIn(InvW, EnvW, P)),
      lnot(sameState(Exec.merge1(C, W1),
                     lang::stepState(Prog, Exec.merge1(C, W), X, P))));
  return settle(Base, Step, Opts);
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
