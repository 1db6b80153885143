//===- tests/runtime_specialize_test.cpp - Kernel specializer coverage ----===//
//
// Pins which Table-1 step shapes the kernel specializer recognizes, how
// CompiledProgram selects its execution tier, the --no-specialize
// ablation path, and state-level equality between the specialized fold
// and the other tiers: on the benchmarks' random segments, and on a table
// of every guard x op x term lane over data that includes INT64_MIN and
// INT64_MAX.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Kernels.h"
#include "runtime/Specialize.h"
#include "runtime/Workload.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

using namespace grassp;
using runtime::CompiledProgram;
using runtime::ExecTier;
using runtime::SpecializedStep;

namespace {

constexpr int64_t Min64 = INT64_MIN;
constexpr int64_t Max64 = INT64_MAX;

const lang::SerialProgram &bench(const std::string &Name) {
  const lang::SerialProgram *P = lang::findBenchmark(Name);
  EXPECT_NE(P, nullptr) << Name;
  return *P;
}

TEST(Specialize, ExpectedBenchmarkFamilyMatches) {
  // The sum/count/min/max/guarded-accumulate/counted-extrema/second
  // family must specialize; programs with cross-field data flow or
  // position-dependent state must not.
  const std::set<std::string> MustMatch = {
      "sum",        "count",     "count_gt",  "sum_even",     "sum_gt",
      "min_elem",   "max_elem",  "max_abs",   "search",       "second_max",
      "delta_max_min", "average", "count_max", "count_min", "eq_zeros_ones"};
  const std::set<std::string> MustNotMatch = {
      "is_sorted",     "count_102",   "max_dist_ones",
      "alternating01", "count_run1",  "max_sum_zeros",
      "all_equal",     "zero_first_one_last"};
  for (const lang::SerialProgram &P : lang::allBenchmarks()) {
    if (P.State.hasBag())
      continue;
    std::optional<SpecializedStep> S = runtime::specializeStep(P);
    if (MustMatch.count(P.Name)) {
      EXPECT_TRUE(S.has_value()) << P.Name << " should specialize";
    }
    if (MustNotMatch.count(P.Name)) {
      EXPECT_FALSE(S.has_value()) << P.Name << " should NOT specialize";
    }
    if (S) {
      EXPECT_FALSE(S->describe().empty());
    }
  }
}

TEST(Specialize, TierSelectionPrefersSpecialized) {
  CompiledProgram Sum(bench("sum"));
  EXPECT_EQ(Sum.tier(), ExecTier::Specialized);
  EXPECT_TRUE(Sum.tierAvailable(ExecTier::Specialized));
  EXPECT_TRUE(Sum.tierAvailable(ExecTier::LoopVM));
  EXPECT_TRUE(Sum.tierAvailable(ExecTier::PerElement));
  EXPECT_EQ(Sum.specializationInfo(), "s:add(in)");

  // Unspecializable steps fall to the jit-compiled native tier when a
  // host compiler exists, and to the loop VM otherwise (pinned exactly
  // via the --no-native ablation below).
  CompiledProgram Sorted(bench("is_sorted"));
  EXPECT_FALSE(Sorted.tierAvailable(ExecTier::Specialized));
  if (Sorted.tierAvailable(ExecTier::Native))
    EXPECT_EQ(Sorted.tier(), ExecTier::Native);
  else
    EXPECT_EQ(Sorted.tier(), ExecTier::LoopVM);

  CompiledProgram SortedNoJit(bench("is_sorted"), /*AllowSpecialize=*/true,
                              /*AllowNative=*/false);
  EXPECT_EQ(SortedNoJit.tier(), ExecTier::LoopVM);
  EXPECT_FALSE(SortedNoJit.tierAvailable(ExecTier::Native));
}

TEST(Specialize, NoSpecializeAblationFallsBackToLoopVM) {
  CompiledProgram Ablated(bench("sum"), /*AllowSpecialize=*/false,
                          /*AllowNative=*/false);
  EXPECT_EQ(Ablated.tier(), ExecTier::LoopVM);
  EXPECT_FALSE(Ablated.tierAvailable(ExecTier::Specialized));
  EXPECT_TRUE(Ablated.specializationInfo().empty());

  // The bag program's hash-set kernel is its semantics, not an
  // optimization: the ablation flag must not disable it.
  CompiledProgram Bag(bench("count_distinct"), /*AllowSpecialize=*/false);
  EXPECT_EQ(Bag.tier(), ExecTier::Specialized);
  EXPECT_EQ(Bag.specializationInfo(), "distinct(hash-set)");
}

TEST(Specialize, CoupledKernelsClaimTheirFields) {
  // count_max couples its extremum with its counter; the extremum field
  // must be handled by the counted kernel, not grabbed as a plain max
  // lane (which would leave the counter unmatchable).
  std::optional<SpecializedStep> S =
      runtime::specializeStep(bench("count_max"));
  ASSERT_TRUE(S.has_value());
  ASSERT_EQ(S->countedKernels().size(), 1u);
  EXPECT_TRUE(S->countedKernels()[0].IsMax);
  EXPECT_TRUE(S->lanes().empty());

  std::optional<SpecializedStep> S2 =
      runtime::specializeStep(bench("second_max"));
  ASSERT_TRUE(S2.has_value());
  ASSERT_EQ(S2->secondKernels().size(), 1u);
  EXPECT_TRUE(S2->secondKernels()[0].IsMax);
}

TEST(Specialize, SpecializedFoldMatchesPerElementStateExactly) {
  // Full-state (not just output) equality between the specialized fold
  // and the per-element tier on random segments, for every specializable
  // benchmark.
  Rng R(777);
  for (const lang::SerialProgram &P : lang::allBenchmarks()) {
    if (P.State.hasBag())
      continue;
    CompiledProgram CP(P);
    if (!CP.tierAvailable(ExecTier::Specialized))
      continue;
    for (unsigned Trial = 0; Trial != 20; ++Trial) {
      size_t N = R.bounded(200);
      std::vector<int64_t> Data =
          runtime::generateWorkload(P, N, R.next());
      runtime::SegmentView Seg{Data.data(), Data.size()};

      std::vector<int64_t> SpecState = CP.initialState();
      CP.foldSegmentTier(ExecTier::Specialized, SpecState, Seg);
      std::vector<int64_t> RefState = CP.initialState();
      CP.foldSegmentTier(ExecTier::PerElement, RefState, Seg);
      EXPECT_EQ(SpecState, RefState) << P.Name << " N=" << N;
    }
  }
}

TEST(Specialize, GuardedAndModuloLanesHandleNegativeInputs) {
  // sum_even uses in mod 2 == 0: Euclidean mod must classify negative
  // even/odd inputs correctly.
  const lang::SerialProgram &P = bench("sum_even");
  CompiledProgram CP(P);
  ASSERT_TRUE(CP.tierAvailable(ExecTier::Specialized));
  std::vector<int64_t> Data = {-4, -3, -2, -1, 0, 1, 2, 3};
  runtime::SegmentView Seg{Data.data(), Data.size()};
  std::vector<int64_t> S1 = CP.initialState(), S2 = CP.initialState();
  CP.foldSegmentTier(ExecTier::Specialized, S1, Seg);
  CP.foldSegmentTier(ExecTier::PerElement, S2, Seg);
  EXPECT_EQ(S1, S2);
  EXPECT_EQ(CP.runSerialTier(ExecTier::Specialized, {Seg}),
            lang::runSerial(P, Data));
}

/// One guard row of the lane table: the guard expression, and whether
/// the lanes wrap their core as ite(G, field, core) (the negated form)
/// instead of ite(G, core, field).
struct GuardRow {
  std::string Label;
  ir::ExprRef G; // null: unguarded.
  bool Negated = false;
};

std::vector<GuardRow> guardTable() {
  using namespace ir;
  ExprRef In = var(lang::inputVarName(), TypeKind::Int);
  std::vector<GuardRow> Rows = {{"true", nullptr, false}};
  using Cmp = ExprRef (*)(ExprRef, ExprRef);
  const std::pair<const char *, Cmp> Cmps[] = {
      {"==", eq}, {"!=", ne}, {"<", lt}, {"<=", le}, {">", gt}, {">=", ge}};
  for (const auto &[Name, Make] : Cmps) {
    for (int64_t C : {int64_t{5}, Min64, Max64})
      Rows.push_back({"in" + std::string(Name) + std::to_string(C),
                      Make(In, constInt(C)), false});
    // The flipped spelling c <cmp> in and the negated ite.
    Rows.push_back({"-3" + std::string(Name) + "in", Make(constInt(-3), In),
                    false});
    Rows.push_back({"not(in" + std::string(Name) + "5)",
                    Make(In, constInt(5)), true});
  }
  // Power-of-two moduli (|m| = 2^63 included) take the mask path, the
  // others the division; negative m means modulus |m|.
  const std::pair<int64_t, int64_t> Mods[] = {
      {2, 0}, {-2, 1}, {8, 3}, {-8, 7}, {1, 0}, {-1, 0}, {4, -1},
      {Min64, 5}, {3, 2}, {-3, 1}, {7, 0}, {-1000000007, 6}};
  for (const auto &[M, K] : Mods)
    Rows.push_back({"in%" + std::to_string(M) + "==" + std::to_string(K),
                    eq(intMod(In, constInt(M)), constInt(K)), false});
  return Rows;
}

/// A program with one independent lane per (op, term) pair under \p Row's
/// guard, plus an or lane when guarded: every lane shape the
/// specializer accepts.
lang::SerialProgram laneProgram(const GuardRow &Row) {
  using namespace ir;
  ExprRef In = var(lang::inputVarName(), TypeKind::Int);
  using Acc = ExprRef (*)(ExprRef, ExprRef);
  const std::pair<const char *, Acc> Ops[] = {
      {"add", add}, {"min", smin}, {"max", smax}};
  const std::pair<const char *, ExprRef> Terms[] = {
      {"in", In}, {"k", constInt(-7)}, {"abs", smax(In, neg(In))}};
  lang::SerialProgram P;
  P.Name = "lanes[" + Row.Label + "]";
  std::vector<lang::Field> Fields;
  for (const auto &[OpName, MakeOp] : Ops)
    for (const auto &[TermName, Term] : Terms) {
      std::string F = std::string(OpName) + "_" + TermName;
      ExprRef FV = var(F, TypeKind::Int);
      ExprRef Core = MakeOp(FV, Term);
      Fields.push_back({F, TypeKind::Int, 0});
      P.Step.push_back(!Row.G        ? Core
                       : Row.Negated ? ite(Row.G, FV, Core)
                                     : ite(Row.G, Core, FV));
    }
  if (Row.G && !Row.Negated) {
    Fields.push_back({"hit", TypeKind::Bool, 0});
    P.Step.push_back(lor(var("hit", TypeKind::Bool), Row.G));
  }
  P.State = lang::StateLayout(Fields);
  P.Output = constInt(0);
  return P;
}

int64_t extremeOrSmall(Rng &R) {
  switch (R.bounded(6)) {
  case 0:
    return Min64 + static_cast<int64_t>(R.bounded(3));
  case 1:
    return Max64 - static_cast<int64_t>(R.bounded(3));
  case 2:
    return static_cast<int64_t>(R.next());
  default:
    return R.range(-20, 20);
  }
}

TEST(Specialize, EveryLaneShapeMatchesLoopVMAndNativeBitForBit) {
  // Specialized lanes run unconditionally (a failed guard folds the
  // operator's identity), so Term(in) and its overflow happen on every
  // element. All tiers must agree on wrapping arithmetic, |INT64_MIN|,
  // and Euclidean residues of extreme inputs, whatever the state.
  Rng R(0x5eed);
  for (const GuardRow &Row : guardTable()) {
    lang::SerialProgram P = laneProgram(Row);
    std::optional<SpecializedStep> S = runtime::specializeStep(P);
    ASSERT_TRUE(S.has_value()) << P.Name;
    ASSERT_EQ(S->lanes().size(), P.State.size()) << P.Name;
    CompiledProgram CP(P);
    ASSERT_EQ(CP.tier(), ExecTier::Specialized) << P.Name;
    std::vector<ExecTier> Others = {ExecTier::LoopVM, ExecTier::PerElement};
    if (CP.tierAvailable(ExecTier::Native))
      Others.push_back(ExecTier::Native);
    for (unsigned Trial = 0; Trial != 12; ++Trial) {
      std::vector<int64_t> Init;
      for (const lang::Field &F : P.State.fields())
        Init.push_back(F.Ty == ir::TypeKind::Bool
                           ? static_cast<int64_t>(R.bounded(2))
                           : extremeOrSmall(R));
      std::vector<int64_t> Data(R.bounded(300));
      for (int64_t &X : Data)
        X = extremeOrSmall(R);
      runtime::SegmentView Seg{Data.data(), Data.size()};
      std::vector<int64_t> Spec = Init;
      CP.foldSegmentTier(ExecTier::Specialized, Spec, Seg);
      for (ExecTier T : Others) {
        std::vector<int64_t> St = Init;
        CP.foldSegmentTier(T, St, Seg);
        EXPECT_EQ(Spec, St) << P.Name << " (" << S->describe() << ") vs "
                            << runtime::execTierName(T) << ", trial "
                            << Trial;
      }
    }
  }
}

} // namespace
