//===- tests/synth_induction_test.cpp - Acceptance by induction ----------===//
//
// EquivChecker proves a no-prefix or cond-prefix summary plan for every
// segmentation by a base and a step query over invariants, before the
// bounded shapes. These tests pin what the induction may accept: every
// no-prefix and cond-prefix winner of the suite, only plans (and plan
// mutants) the bounded shapes and concrete runs also accept, never a
// plan that is right only within the bound, and nothing once the token
// has fired.
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

#include <atomic>
#include <chrono>
#include <map>
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

/// The suite's programs whose winner is a cond-prefix summary plan.
std::vector<const lang::SerialProgram *> condPrefixPrograms() {
  std::vector<const lang::SerialProgram *> Out;
  for (const lang::SerialProgram &P : lang::allBenchmarks())
    if (P.ExpectedGroup == "B4")
      Out.push_back(&P);
  return Out;
}

/// Single mutations of a cond-prefix summary plan: another prefix_cond,
/// another accumulator flavour, or another entry in a mode or an arg
/// table. The other tables are left as they were.
std::vector<ParallelPlan> condPrefixMutants(const lang::SerialProgram &P,
                                            const ParallelPlan &Won) {
  std::vector<ParallelPlan> Out;
  std::string Pc = toString(Won.Cond.PrefixCond);
  ExprRef In = var(lang::inputVarName(), TypeKind::Int);
  for (int64_t C : P.representativeInputs())
    for (ExprRef Alt : {eq(In, constInt(C)), ne(In, constInt(C))})
      if (toString(Alt) != Pc) {
        ParallelPlan M = Won;
        M.Cond.PrefixCond = Alt;
        Out.push_back(std::move(M));
      }
  const CondPrefixInfo &CP = Won.Cond;
  for (size_t J = 0; J != CP.AccFields.size(); ++J) {
    bool IsBool = P.State.field(CP.AccFields[J]).Ty == TypeKind::Bool;
    std::vector<AccFlavor> Flavors =
        IsBool ? std::vector<AccFlavor>{AccFlavor::And, AccFlavor::Or,
                                        AccFlavor::SetLike}
               : std::vector<AccFlavor>{AccFlavor::Plus, AccFlavor::Max,
                                        AccFlavor::Min, AccFlavor::SetLike};
    for (AccFlavor F : Flavors)
      if (F != CP.AccFlavors[J]) {
        ParallelPlan M = Won;
        M.Cond.AccFlavors[J] = F;
        Out.push_back(std::move(M));
      }
    for (size_t V = 0; V != CP.numValuations(); ++V) {
      for (int64_t Mode : {0, 1, 2})
        if (toString(CP.AccMode[V][J]) != toString(constInt(Mode))) {
          ParallelPlan M = Won;
          M.Cond.AccMode[V][J] = constInt(Mode);
          Out.push_back(std::move(M));
        }
      ParallelPlan M = Won;
      const ExprRef &Arg = CP.AccArg[V][J];
      M.Cond.AccArg[V][J] = IsBool ? lnot(Arg) : add(Arg, constInt(1));
      Out.push_back(std::move(M));
    }
  }
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

/// Each of \p Progs synthesizes a \p Kind plan accepted by induction.
void expectWinnersProvedByInduction(
    const std::vector<const lang::SerialProgram *> &Progs, Scenario Kind) {
  for (const lang::SerialProgram *P : Progs) {
    SynthesisResult R = synthesize(*P);
    ASSERT_TRUE(R.Success) << P->Name;
    EXPECT_EQ(R.Plan.Kind, Kind) << P->Name;
    ASSERT_TRUE(R.Proof.has_value()) << P->Name;
    EXPECT_EQ(*R.Proof, ProofRoute::Induction) << P->Name;
    bool Logged = false;
    for (const std::string &S : R.StageLog)
      Logged |= S.find("accepted by induction") != std::string::npos;
    EXPECT_TRUE(Logged) << P->Name;
  }
}

TEST(Induction, AcceptsEveryNoPrefixWinner) {
  std::vector<const lang::SerialProgram *> Progs = noPrefixPrograms();
  ASSERT_EQ(Progs.size(), 15u);
  expectWinnersProvedByInduction(Progs, Scenario::NoPrefix);
}

TEST(Induction, AcceptsEveryCondPrefixWinner) {
  std::vector<const lang::SerialProgram *> Progs = condPrefixPrograms();
  ASSERT_EQ(Progs.size(), 6u);
  expectWinnersProvedByInduction(Progs, Scenario::CondPrefixSummary);
}

/// Tries the induction on one mutant; if it proves the mutant, the
/// bounded shapes and 40 random concrete runs must accept it too.
/// Returns the route, and appends what went wrong to \p Failures.
ProofRoute checkMutant(const lang::SerialProgram &P, const ParallelPlan &Plan,
                       uint64_t Seed, std::vector<std::string> &Failures) {
  EquivChecker C(P);
  ProofRoute Route = C.proveByInduction(Plan, VerifyOptions());
  if (Route == ProofRoute::BoundedUnknown)
    Failures.push_back("induction unknown");
  if (Route != ProofRoute::Induction)
    return Route;
  if (C.verifyBounded(Plan, VerifyOptions()) != Verdict::Equivalent)
    Failures.push_back("proved, but the shapes refute it");
  Rng R(Seed);
  for (int Trial = 0; Trial != 40; ++Trial) {
    Segments Segs = randomSegments(P, R);
    if (runPlanConcrete(P, Plan, Segs) != lang::runSerialSegmented(P, Segs)) {
      Failures.push_back("proved, but trial " + std::to_string(Trial) +
                         " diverges");
      break;
    }
  }
  return Route;
}

TEST(Induction, ProvedCondPrefixMutantsPassBoundedAndConcreteChecks) {
  struct Job {
    const lang::SerialProgram *P;
    ParallelPlan Plan;
    bool Proved = false;
    std::vector<std::string> Failures;
  };
  std::vector<Job> Jobs;
  for (const lang::SerialProgram *P : condPrefixPrograms()) {
    SynthesisResult Won = synthesize(*P);
    ASSERT_TRUE(Won.Success) << P->Name;
    for (ParallelPlan &M : condPrefixMutants(*P, Won.Plan))
      Jobs.push_back({P, std::move(M), false, {}});
  }
  // One checker, and so one Z3 context, per mutant; four at a time.
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (size_t I; (I = Next++) < Jobs.size();)
        Jobs[I].Proved = checkMutant(*Jobs[I].P, Jobs[I].Plan, 26 + I,
                                     Jobs[I].Failures) ==
                         ProofRoute::Induction;
    });
  for (std::thread &T : Threads)
    T.join();

  std::map<std::string, std::pair<unsigned, unsigned>> ProvedOfAll;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    for (const std::string &F : Jobs[I].Failures)
      ADD_FAILURE() << Jobs[I].P->Name << " mutant #" << I << ": " << F;
    auto &[Proved, All] = ProvedOfAll[Jobs[I].P->Name];
    Proved += Jobs[I].Proved;
    ++All;
  }
  ASSERT_EQ(ProvedOfAll.size(), 6u);
  for (const auto &[Name, Count] : ProvedOfAll) {
    EXPECT_GE(Count.first, 1u) << Name;
    // Some mutants fail the induction, or it would prove anything.
    EXPECT_LT(Count.first, Count.second) << Name;
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
      auto T0 = std::chrono::steady_clock::now();
      EXPECT_EQ(C.verifyBounded(Plan, VerifyOptions()), Verdict::Equivalent)
          << P->Name << " #" << K;
      std::printf("  #%zu bounded %.3f s\n", K, std::chrono::duration<double>(std::chrono::steady_clock::now()-T0).count());
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

/// A fired or expired token makes the induction prove nothing, and
/// caches nothing: with a live token the checker still proves \p Won.
void expectNothingAcceptedOnceTheTokenFired(const lang::SerialProgram &P,
                                            const SynthesisResult &Won) {
  EquivChecker C(P);
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

TEST(Induction, AcceptsNothingOnceTheTokenFired) {
  const lang::SerialProgram *P = lang::findBenchmark("second_max");
  SynthesisResult Won = synthesize(*P);
  ASSERT_TRUE(Won.Success);
  ASSERT_EQ(Won.Proof, ProofRoute::Induction);
  expectNothingAcceptedOnceTheTokenFired(*P, Won);
}

TEST(Induction, AcceptsNoCondPrefixPlanOnceTheTokenFired) {
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  SynthesisResult Won = synthesize(*P);
  ASSERT_TRUE(Won.Success);
  ASSERT_EQ(Won.Plan.Kind, Scenario::CondPrefixSummary);
  ASSERT_EQ(Won.Proof, ProofRoute::Induction);
  expectNothingAcceptedOnceTheTokenFired(*P, Won);
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
