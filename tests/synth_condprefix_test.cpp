//===- tests/synth_condprefix_test.cpp - Stage-3 construction tests -------==//

#include "lang/Benchmarks.h"
#include "synth/CondPrefix.h"

#include <gtest/gtest.h>

using namespace grassp;
using namespace grassp::ir;
using namespace grassp::synth;

namespace {

ExprRef pcEq(int64_t C) {
  return eq(var(lang::inputVarName(), TypeKind::Int), constInt(C));
}

TEST(CondPrefix, Count102WithBoundary2) {
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  std::string Why;
  std::optional<CondPrefixInfo> Info = buildCondPrefix(*P, pcEq(2), &Why);
  ASSERT_TRUE(Info.has_value()) << Why;
  // Control = the FST state q with valuations {0, 1}; accumulator = cnt.
  ASSERT_EQ(Info->CtrlFields.size(), 1u);
  EXPECT_EQ(P->State.field(Info->CtrlFields[0]).Name, "q");
  EXPECT_EQ(Info->numValuations(), 2u);
  ASSERT_EQ(Info->AccFields.size(), 1u);
  EXPECT_EQ(P->State.field(Info->AccFields[0]).Name, "cnt");
  EXPECT_EQ(Info->AccFlavors[0], AccFlavor::Plus);
}

TEST(CondPrefix, MaxDistOnesDemotesOkStyleFields) {
  const lang::SerialProgram *P = lang::findBenchmark("max_dist_ones");
  std::optional<CondPrefixInfo> Info = buildCondPrefix(*P, pcEq(1));
  ASSERT_TRUE(Info.has_value());
  // seen1 is control; dist and best are accumulators (+ and max).
  ASSERT_EQ(Info->CtrlFields.size(), 1u);
  EXPECT_EQ(P->State.field(Info->CtrlFields[0]).Name, "seen1");
  ASSERT_EQ(Info->AccFields.size(), 2u);
  EXPECT_EQ(Info->AccFlavors[0], AccFlavor::Plus); // dist
  EXPECT_EQ(Info->AccFlavors[1], AccFlavor::Max);  // best
}

TEST(CondPrefix, RejectsBagState) {
  const lang::SerialProgram *P = lang::findBenchmark("count_distinct");
  std::string Why;
  EXPECT_FALSE(buildCondPrefix(*P, pcEq(0), &Why).has_value());
  EXPECT_EQ(Why, "bag-typed state");
}

TEST(CondPrefix, RejectsNonAtomPrefixCond) {
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  std::string Why;
  ExprRef Bad = gt(var(lang::inputVarName(), TypeKind::Int), constInt(0));
  EXPECT_FALSE(buildCondPrefix(*P, Bad, &Why).has_value());
}

TEST(CondPrefix, SumOfElementsHasNoControl) {
  // "sum" has a single arithmetic accumulator and no finite control, so
  // the construction must fail cleanly.
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  std::string Why;
  EXPECT_FALSE(buildCondPrefix(*P, pcEq(0), &Why).has_value());
  EXPECT_EQ(Why, "no finite-control fields");
}

TEST(CondPrefix, MaterializedUpdMentionsDeltaVars) {
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  std::optional<CondPrefixInfo> Info = buildCondPrefix(*P, pcEq(2));
  ASSERT_TRUE(Info.has_value());
  ParallelPlan Plan;
  Plan.Kind = Scenario::CondPrefixSummary;
  Plan.Cond = *Info;
  std::vector<ExprRef> Upd = materializeUpdExprs(*P, Plan);
  ASSERT_EQ(Upd.size(), 2u);
  // The paper notes most synthesized upd functions are nested ite terms.
  std::map<std::string, TypeKind> Vars;
  collectVars(Upd[1], Vars); // cnt update
  bool MentionsDelta = false;
  for (const auto &KV : Vars)
    MentionsDelta |= KV.first.rfind("w_", 0) == 0;
  EXPECT_TRUE(MentionsDelta);
}

TEST(CondPrefix, CtrlStepsDependOnlyOnInput) {
  const lang::SerialProgram *P = lang::findBenchmark("count_10203");
  std::optional<CondPrefixInfo> Info = buildCondPrefix(*P, pcEq(3));
  ASSERT_TRUE(Info.has_value());
  EXPECT_EQ(Info->numValuations(), 3u); // q in {0, 1, 2}
  for (const auto &PerV : Info->CtrlStep)
    for (const ExprRef &E : PerV) {
      std::map<std::string, TypeKind> Vars;
      collectVars(E, Vars);
      for (const auto &KV : Vars)
        EXPECT_EQ(KV.first, lang::inputVarName());
    }
}

} // namespace
