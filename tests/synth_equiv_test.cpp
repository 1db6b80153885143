//===- tests/synth_equiv_test.cpp - Bounded verifier tests -----------------=//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "synth/EquivCheck.h"
#include "synth/PlanEval.h"
#include "synth/Grammar.h"

#include <gtest/gtest.h>

using namespace grassp;
using namespace grassp::ir;
using namespace grassp::synth;

namespace {

MergeFn singleFieldMerge(const lang::SerialProgram &P, Op O) {
  const lang::Field &F = P.State.field(0);
  return MergeFn{false,
                 {binary(O, var("a_" + F.Name, F.Ty),
                         var("b_" + F.Name, F.Ty))}};
}

TEST(EquivCheck, AcceptsCorrectSumMerge) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  EquivChecker C(*P);
  ParallelPlan Plan;
  Plan.Kind = Scenario::NoPrefix;
  Plan.Merge = singleFieldMerge(*P, Op::Add);
  EXPECT_EQ(C.verify(Plan, VerifyOptions()), Verdict::Equivalent);
}

TEST(EquivCheck, RefutesWrongSumMergeWithCounterexample) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  EquivChecker C(*P);
  ParallelPlan Plan;
  Plan.Kind = Scenario::NoPrefix;
  Plan.Merge = singleFieldMerge(*P, Op::Max);
  Segments Cex;
  ASSERT_EQ(C.verify(Plan, VerifyOptions(), &Cex), Verdict::Refuted);
  // The model really is a counterexample: serial != plan on it.
  EXPECT_NE(lang::runSerialSegmented(*P, Cex),
            runPlanConcrete(*P, Plan, Cex));
  // And it entered the corpus, so the same plan now fails the screen.
  EXPECT_FALSE(C.passesCorpus(Plan));
}

TEST(EquivCheck, CorpusScreensObviouslyWrongPlans) {
  const lang::SerialProgram *P = lang::findBenchmark("count");
  EquivChecker C(*P);
  C.seedCorpus(50, 1);
  ParallelPlan Wrong;
  Wrong.Kind = Scenario::NoPrefix;
  Wrong.Merge = singleFieldMerge(*P, Op::Min);
  EXPECT_FALSE(C.passesCorpus(Wrong));
  ParallelPlan Right;
  Right.Kind = Scenario::NoPrefix;
  Right.Merge = singleFieldMerge(*P, Op::Add);
  EXPECT_TRUE(C.passesCorpus(Right));
}

TEST(EquivCheck, ConstPrefixLengthMatters) {
  // is_sorted needs l >= 1; l = 0 (plain merge) must be refuted.
  const lang::SerialProgram *P = lang::findBenchmark("is_sorted");
  EquivChecker C(*P);
  std::vector<MergeFn> Ms = nontrivialMergeCandidates(*P);

  bool AnyL1Accepted = false;
  for (const MergeFn &M : Ms) {
    ParallelPlan Plan;
    Plan.Kind = Scenario::ConstPrefix;
    Plan.PrefixLen = 1;
    Plan.Merge = M;
    if (!C.passesCorpus(Plan))
      continue;
    if (C.verify(Plan, VerifyOptions()) == Verdict::Equivalent) {
      AnyL1Accepted = true;
      // The same merge *without* the repair must be wrong.
      ParallelPlan NoRepair = Plan;
      NoRepair.Kind = Scenario::NoPrefix;
      EXPECT_NE(C.verify(NoRepair, VerifyOptions()), Verdict::Equivalent);
      break;
    }
  }
  EXPECT_TRUE(AnyL1Accepted);
}

TEST(EquivCheck, SmtQueriesAreCounted) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  EquivChecker C(*P);
  ParallelPlan Plan;
  Plan.Kind = Scenario::NoPrefix;
  Plan.Merge = singleFieldMerge(*P, Op::Add);
  VerifyOptions Opts;
  C.verify(Plan, Opts);
  EXPECT_GT(C.numSmtChecks(), 0u);
}

TEST(EquivCheck, OneCheckerAnswersLikeFreshCheckers) {
  // The checker keeps one solver across verify() calls; a sequence of
  // refute, accept, refute must give what a fresh checker per call
  // gives: the verdict, the SMT query count, and a counterexample of
  // the same segment shape (the first shape whose query is
  // satisfiable). Z3 keeps search state across push/pop, so the model
  // values may differ; both must refute the plan.
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  std::vector<ParallelPlan> Plans;
  for (Op O : {Op::Max, Op::Add, Op::Min}) {
    ParallelPlan Plan;
    Plan.Kind = Scenario::NoPrefix;
    Plan.Merge = singleFieldMerge(*P, O);
    Plans.push_back(std::move(Plan));
  }
  const Verdict Expected[] = {Verdict::Refuted, Verdict::Equivalent,
                              Verdict::Refuted};

  EquivChecker Reused(*P);
  unsigned FreshChecks = 0;
  for (size_t K = 0; K != Plans.size(); ++K) {
    EquivChecker Fresh(*P);
    Segments FreshCex, ReusedCex;
    Verdict FV = Fresh.verify(Plans[K], VerifyOptions(), &FreshCex);
    unsigned Before = Reused.numSmtChecks();
    Verdict RV = Reused.verify(Plans[K], VerifyOptions(), &ReusedCex);
    EXPECT_EQ(FV, Expected[K]) << "plan " << K;
    EXPECT_EQ(RV, FV) << "plan " << K;
    ASSERT_EQ(ReusedCex.size(), FreshCex.size()) << "plan " << K;
    for (size_t I = 0; I != FreshCex.size(); ++I)
      EXPECT_EQ(ReusedCex[I].size(), FreshCex[I].size()) << "plan " << K;
    if (RV == Verdict::Refuted) {
      EXPECT_NE(lang::runSerialSegmented(*P, ReusedCex),
                runPlanConcrete(*P, Plans[K], ReusedCex))
          << "plan " << K;
    }
    EXPECT_EQ(Reused.numSmtChecks() - Before, Fresh.numSmtChecks())
        << "plan " << K;
    FreshChecks += Fresh.numSmtChecks();
  }
  EXPECT_EQ(Reused.numSmtChecks(), FreshChecks);
  EXPECT_EQ(Reused.numSmtFallbacks(), 0u);
}

} // namespace
