//===- tests/plan_eval_test.cpp - Plan executor semantics tests -----------==//
//
// Unit tests for the domain-generic plan executor: worker behavior on
// hand-constructed segments, the symbolic/concrete agreement property
// (the two domains must compute the same function), and the upd
// materialization round-trip.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "smt/Solver.h"
#include "support/Random.h"
#include "synth/Grassp.h"
#include "synth/PlanEval.h"

#include <gtest/gtest.h>

using namespace grassp;
using namespace grassp::ir;
using namespace grassp::synth;

namespace {

ParallelPlan planFor(const char *Name) {
  SynthesisResult R = synthesize(*lang::findBenchmark(Name));
  EXPECT_TRUE(R.Success);
  return R.Plan;
}

TEST(Worker, SplitsAtFirstBoundary) {
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  ParallelPlan Plan = planFor("count_102");
  ConcretePolicy Pol;
  PlanExecutor<ConcretePolicy> Exec(*P, Plan, Pol);

  int64_t Marker = Plan.Cond.PrefixCond->operand(1)->intValue();
  // A segment with the marker at index 2.
  std::vector<int64_t> Seg = {0, 0, Marker, 0, Marker};
  WorkerResult<ConcretePolicy> W = Exec.runWorker(Seg);
  EXPECT_TRUE(W.Found);
  EXPECT_EQ(W.Boundary, Marker);

  // A marker-free segment: never found, boundary untouched.
  std::vector<int64_t> NoB(6, Marker == 0 ? 2 : 0);
  WorkerResult<ConcretePolicy> W2 = Exec.runWorker(NoB);
  EXPECT_FALSE(W2.Found);
}

TEST(Worker, SuffixFoldIncludesBoundary) {
  const lang::SerialProgram *P = lang::findBenchmark("max_dist_ones");
  ParallelPlan Plan = planFor("max_dist_ones");
  ASSERT_EQ(toString(Plan.Cond.PrefixCond), "(in == 1)");
  ConcretePolicy Pol;
  PlanExecutor<ConcretePolicy> Exec(*P, Plan, Pol);
  // {0, 1, 0, 0, 1}: suffix = {1,0,0,1}; its internal best = 3.
  std::vector<int64_t> Seg = {0, 1, 0, 0, 1};
  WorkerResult<ConcretePolicy> W = Exec.runWorker(Seg);
  ASSERT_TRUE(W.Found);
  int Best = P->State.indexOf("best");
  EXPECT_EQ(W.D[Best].Sc, 3);
}

TEST(MergeWorkers, EmptySegmentListYieldsInitialOutput) {
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  ParallelPlan Plan = planFor("count_102");
  ConcretePolicy Pol;
  PlanExecutor<ConcretePolicy> Exec(*P, Plan, Pol);
  EXPECT_EQ(Exec.mergeWorkers({}), 0);
}

// Symbolic/concrete agreement: evaluating the plan symbolically over
// fresh variables and then asserting equality with the concrete result
// on specific values must be valid (unsat negation).
class DomainsAgree : public ::testing::TestWithParam<std::string> {};

TEST_P(DomainsAgree, SymbolicMatchesConcrete) {
  const lang::SerialProgram *P = lang::findBenchmark(GetParam());
  ParallelPlan Plan = planFor(GetParam().c_str());
  if (P->State.hasBag())
    GTEST_SKIP() << "bag symbolic equality needs set reasoning";

  // Shape: 2 segments of 2.
  SymbolicPolicy SP;
  std::vector<std::vector<ExprRef>> SymSegs = {
      {var("a0", TypeKind::Int), var("a1", TypeKind::Int)},
      {var("b0", TypeKind::Int), var("b1", TypeKind::Int)}};
  PlanExecutor<SymbolicPolicy> SExec(*P, Plan, SP);
  ExprRef SymOut = SExec.run(SymSegs);

  Rng R(31);
  std::vector<int64_t> Reps = P->representativeInputs();
  for (int Trial = 0; Trial != 10; ++Trial) {
    int64_t A0 = Reps[R.next() % Reps.size()];
    int64_t A1 = Reps[R.next() % Reps.size()];
    int64_t B0 = Reps[R.next() % Reps.size()];
    int64_t B1 = Reps[R.next() % Reps.size()];
    int64_t Conc = runPlanConcrete(*P, Plan, {{A0, A1}, {B0, B1}});

    smt::SmtSolver S;
    S.add(eq(var("a0", TypeKind::Int), constInt(A0)));
    S.add(eq(var("a1", TypeKind::Int), constInt(A1)));
    S.add(eq(var("b0", TypeKind::Int), constInt(B0)));
    S.add(eq(var("b1", TypeKind::Int), constInt(B1)));
    ExprRef ConcOut = SymOut->getType() == TypeKind::Bool
                          ? eq(SymOut, constBool(Conc != 0))
                          : eq(SymOut, constInt(Conc));
    S.add(lnot(ConcOut));
    EXPECT_EQ(S.check(), smt::SatResult::Unsat)
        << P->Name << " on " << A0 << "," << A1 << "|" << B0 << "," << B1;
  }
}

INSTANTIATE_TEST_SUITE_P(Representatives, DomainsAgree,
                         ::testing::Values("sum", "second_max", "average",
                                           "is_sorted", "count_102",
                                           "max_sum_zeros", "count_run1"),
                         [](const auto &Info) { return Info.param; });

TEST(MaterializeUpd, AgreesWithTabulatedUpd) {
  // Evaluating the materialized nested-ite upd on concrete Delta values
  // must match the executor's table-based application.
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  ParallelPlan Plan = planFor("count_102");
  std::vector<ExprRef> Upd = materializeUpdExprs(*P, Plan);

  ConcretePolicy Pol;
  PlanExecutor<ConcretePolicy> Exec(*P, Plan, Pol);
  Rng R(77);
  for (int Trial = 0; Trial != 50; ++Trial) {
    // Random worker summary and carry state.
    WorkerResult<ConcretePolicy> W;
    W.Found = 1;
    W.Boundary = 2;
    size_t NV = Plan.Cond.numValuations();
    W.CtrlCur.resize(NV);
    W.Mode.resize(NV);
    W.Arg.resize(NV);
    DomainEnv<ConcretePolicy> Env;
    for (size_t V = 0; V != NV; ++V) {
      W.CtrlCur[V] = {static_cast<int64_t>(R.next() % 2)};
      W.Mode[V] = {static_cast<int64_t>(R.next() % 3)};
      W.Arg[V] = {R.range(-3, 3)};
      Env.emplace("w_ctrl0_v" + std::to_string(V),
                  DomainValue<ConcretePolicy>::scalar(W.CtrlCur[V][0]));
      Env.emplace("w_mode0_v" + std::to_string(V),
                  DomainValue<ConcretePolicy>::scalar(W.Mode[V][0]));
      Env.emplace("w_arg0_v" + std::to_string(V),
                  DomainValue<ConcretePolicy>::scalar(W.Arg[V][0]));
    }
    lang::StateVec<ConcretePolicy> C;
    C.push_back(DomainValue<ConcretePolicy>::scalar(
        static_cast<int64_t>(R.next() % 2)));     // q
    C.push_back(DomainValue<ConcretePolicy>::scalar(R.range(0, 9))); // cnt
    Env.emplace("q", C[0]);
    Env.emplace("cnt", C[1]);

    lang::StateVec<ConcretePolicy> Tab = Exec.applyUpd(C, W);
    for (size_t I = 0; I != Upd.size(); ++I)
      EXPECT_EQ(evalExpr(Upd[I], Env, Pol).Sc, Tab[I].Sc)
          << "field " << I << " trial " << Trial;
  }
}

} // namespace
