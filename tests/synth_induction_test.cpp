//===- tests/synth_induction_test.cpp - Acceptance by induction ----------===//
//
// EquivChecker proves a no-prefix plan for every segmentation by a base
// and a step query over an invariant, before the bounded shapes. These
// tests pin what the induction may accept: every no-prefix winner of the
// suite, only plans the bounded shapes and concrete runs also accept,
// never a plan that is right only within the bound, and nothing once the
// token has fired.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "support/Random.h"
#include "synth/EquivCheck.h"
#include "synth/Grammar.h"
#include "synth/Grassp.h"
#include "synth/PlanEval.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace grassp;
using namespace grassp::ir;
using namespace grassp::synth;

namespace {

/// The suite's programs whose winner is a no-prefix plan the induction
/// may try: groups B1 and B2 without bag state.
std::vector<const lang::SerialProgram *> noPrefixPrograms() {
  std::vector<const lang::SerialProgram *> Out;
  for (const lang::SerialProgram &P : lang::allBenchmarks())
    if ((P.ExpectedGroup == "B1" || P.ExpectedGroup == "B2") &&
        !P.State.hasBag())
      Out.push_back(&P);
  return Out;
}

ParallelPlan noPrefixPlan(MergeFn M) {
  ParallelPlan Plan;
  Plan.Kind = Scenario::NoPrefix;
  Plan.Merge = std::move(M);
  return Plan;
}

/// Random non-empty segments: 1..8 of them, each 1..40 elements, drawn
/// from the representative inputs or the program's value range.
Segments randomSegments(const lang::SerialProgram &P, Rng &R) {
  Segments Segs(static_cast<size_t>(R.range(1, 8)));
  bool FromReps = R.next() % 2 == 0;
  for (std::vector<int64_t> &S : Segs) {
    size_t Len = static_cast<size_t>(R.range(1, 40));
    S = FromReps ? randomFromAlphabet(R, P.representativeInputs(), Len)
                 : randomInRange(R, P.GenLo, P.GenHi, Len);
  }
  return Segs;
}

/// A counter whose output is "at least 10 elements": merging by taking
/// the left count is right on every input the bounded shapes can build
/// (at most 3 segments of 3 elements), and wrong on longer ones.
lang::SerialProgram atLeastTen() {
  lang::SerialProgram P;
  P.Name = "at_least_ten";
  P.Description = "at least ten elements";
  P.State = lang::StateLayout({{"c", TypeKind::Int, 0}});
  P.Step = {add(var("c", TypeKind::Int), constInt(1))};
  P.Output = ge(var("c", TypeKind::Int), constInt(10));
  return P;
}

TEST(Induction, AcceptsEveryNoPrefixWinner) {
  std::vector<const lang::SerialProgram *> Progs = noPrefixPrograms();
  ASSERT_EQ(Progs.size(), 15u);
  for (const lang::SerialProgram *P : Progs) {
    SynthesisResult R = synthesize(*P);
    ASSERT_TRUE(R.Success) << P->Name;
    EXPECT_EQ(R.Plan.Kind, Scenario::NoPrefix) << P->Name;
    ASSERT_TRUE(R.Proof.has_value()) << P->Name;
    EXPECT_EQ(*R.Proof, ProofRoute::Induction) << P->Name;
    bool Logged = false;
    for (const std::string &S : R.StageLog)
      Logged |= S.find("accepted by induction") != std::string::npos;
    EXPECT_TRUE(Logged) << P->Name;
  }
}

TEST(Induction, RecordsWhyItWasNotTried) {
  SynthesisResult Bag = synthesize(*lang::findBenchmark("count_distinct"));
  ASSERT_TRUE(Bag.Success);
  EXPECT_EQ(Bag.Proof, ProofRoute::BoundedBag);
  SynthesisResult Prefix = synthesize(*lang::findBenchmark("is_sorted"));
  ASSERT_TRUE(Prefix.Success);
  EXPECT_EQ(Prefix.Proof, ProofRoute::BoundedPrefix);
}

TEST(Induction, ProvedCandidatesPassBoundedAndConcreteChecks) {
  Rng R(25);
  for (const lang::SerialProgram *P : noPrefixPrograms()) {
    std::vector<MergeFn> Merges = trivialMergeCandidates(*P);
    for (MergeFn &M : nontrivialMergeCandidates(*P))
      Merges.push_back(std::move(M));
    EquivChecker C(*P);
    unsigned Proved = 0;
    for (size_t K = 0; K != Merges.size(); ++K) {
      ParallelPlan Plan = noPrefixPlan(Merges[K]);
      ProofRoute Route = C.proveByInduction(Plan, VerifyOptions());
      ASSERT_NE(Route, ProofRoute::BoundedUnknown) << P->Name << " #" << K;
      if (Route != ProofRoute::Induction)
        continue;
      ++Proved;
      EXPECT_EQ(C.verifyBounded(Plan, VerifyOptions()), Verdict::Equivalent)
          << P->Name << " #" << K;
      for (int Trial = 0; Trial != 40; ++Trial) {
        Segments Segs = randomSegments(*P, R);
        ASSERT_EQ(runPlanConcrete(*P, Plan, Segs),
                  lang::runSerialSegmented(*P, Segs))
            << P->Name << " #" << K << " trial " << Trial;
      }
    }
    EXPECT_GE(Proved, 1u) << P->Name;
  }
}

TEST(Induction, DoesNotProveAPlanRightOnlyWithinTheBound) {
  lang::SerialProgram P = atLeastTen();
  ParallelPlan Plan =
      noPrefixPlan(MergeFn{false, {var("a_c", TypeKind::Int)}});
  EquivChecker C(P);
  ProofRoute Route = ProofRoute::Induction;
  EXPECT_EQ(C.verify(Plan, VerifyOptions(), nullptr, &Route),
            Verdict::Equivalent);
  EXPECT_EQ(Route, ProofRoute::BoundedBase);
  // It really is wrong past the bound: 4 segments of 3 elements.
  Segments Twelve(4, std::vector<int64_t>(3, 0));
  EXPECT_NE(runPlanConcrete(P, Plan, Twelve),
            lang::runSerialSegmented(P, Twelve));
  // A 1 ms SMT budget does not make the induction accept it either.
  VerifyOptions Tight;
  Tight.SmtTimeoutMs = 1;
  EXPECT_NE(C.proveByInduction(Plan, Tight), ProofRoute::Induction);
}

TEST(Induction, StepCatchesAMergeRightOnlyForOneElementSegments) {
  // count merged as "left count + 1" is right whenever the right segment
  // has one element, so the base case holds; the step case does not.
  const lang::SerialProgram *P = lang::findBenchmark("count");
  ParallelPlan Plan = noPrefixPlan(
      MergeFn{false, {add(var("a_cnt", TypeKind::Int), constInt(1))}});
  EquivChecker C(*P);
  ProofRoute Route = ProofRoute::Induction;
  Segments Cex;
  ASSERT_EQ(C.verify(Plan, VerifyOptions(), &Cex, &Route), Verdict::Refuted);
  EXPECT_EQ(Route, ProofRoute::BoundedStep);
  EXPECT_NE(runPlanConcrete(*P, Plan, Cex), lang::runSerialSegmented(*P, Cex));
}

TEST(Induction, SameOutputDifferentStateFallsBackToTheShapes) {
  // eq_zeros_ones outputs z == o. Keeping only the difference z - o in
  // z gives the right output on every segmentation but not the serial
  // state, so the base case fails and the shapes decide: Equivalent.
  const lang::SerialProgram *P = lang::findBenchmark("eq_zeros_ones");
  ExprRef AZ = var("a_z", TypeKind::Int), AO = var("a_o", TypeKind::Int);
  ExprRef BZ = var("b_z", TypeKind::Int), BO = var("b_o", TypeKind::Int);
  ParallelPlan Plan = noPrefixPlan(
      MergeFn{false, {add(sub(AZ, AO), sub(BZ, BO)), constInt(0)}});
  EquivChecker C(*P);
  ProofRoute Route = ProofRoute::Induction;
  EXPECT_EQ(C.verify(Plan, VerifyOptions(), nullptr, &Route),
            Verdict::Equivalent);
  EXPECT_EQ(Route, ProofRoute::BoundedBase);
  EXPECT_EQ(C.verifyBounded(Plan, VerifyOptions()), Verdict::Equivalent);
  Rng R(7);
  for (int Trial = 0; Trial != 40; ++Trial) {
    Segments Segs = randomSegments(*P, R);
    EXPECT_EQ(runPlanConcrete(*P, Plan, Segs),
              lang::runSerialSegmented(*P, Segs));
  }
}

TEST(Induction, AcceptsNothingOnceTheTokenFired) {
  const lang::SerialProgram *P = lang::findBenchmark("second_max");
  SynthesisResult Won = synthesize(*P);
  ASSERT_TRUE(Won.Success);
  ASSERT_EQ(Won.Proof, ProofRoute::Induction);

  EquivChecker C(*P);
  VerifyOptions Fired;
  Fired.Token = CancelToken::root();
  Fired.Token.cancel();
  ProofRoute Route = ProofRoute::Induction;
  EXPECT_EQ(C.verify(Won.Plan, Fired, nullptr, &Route), Verdict::Cancelled);
  EXPECT_EQ(Route, ProofRoute::BoundedCancelled);

  VerifyOptions Expired;
  Expired.Token = CancelToken::root().child(Deadline::after(0.001));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(C.proveByInduction(Won.Plan, Expired),
            ProofRoute::BoundedCancelled);
  EXPECT_EQ(C.verify(Won.Plan, Expired), Verdict::Cancelled);

  // The cut-short attempts cached no invariant: a live token proves it.
  EXPECT_EQ(C.proveByInduction(Won.Plan, VerifyOptions()),
            ProofRoute::Induction);
}

TEST(Induction, LazyBoundsSkipsTheWiderCheckOfAProvedPlan) {
  const lang::SerialProgram *P = lang::findBenchmark("second_max");
  SynthesisResult R = synthesizeWithLazyBounds(*P);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.Proof, ProofRoute::Induction);
  bool Skipped = false;
  for (const std::string &S : R.StageLog)
    Skipped |= S.find("lazy-bounds: plan proved by induction") !=
               std::string::npos;
  EXPECT_TRUE(Skipped);
}

} // namespace
