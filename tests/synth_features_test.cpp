//===- tests/synth_features_test.cpp - Lazy bounds & user templates -------==//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "support/Random.h"
#include "synth/Grassp.h"
#include "synth/PlanEval.h"

#include <gtest/gtest.h>

using namespace grassp;
using namespace grassp::ir;
using namespace grassp::synth;

namespace {

TEST(LazyBounds, ReverifiesAtWiderBounds) {
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  SynthesisResult R = synthesizeWithLazyBounds(*P);
  ASSERT_TRUE(R.Success);
  bool Logged = false;
  for (const std::string &S : R.StageLog)
    Logged |= S.find("lazy-bounds") != std::string::npos;
  EXPECT_TRUE(Logged);
}

TEST(LazyBounds, ReverifiesABoundedWinnerAtWiderBounds) {
  // A constant-prefix (B3) winner is accepted by the bounded shapes, so
  // the lazy loop re-checks it at wider bounds.
  const lang::SerialProgram *P = lang::findBenchmark("zero_first_one_last");
  SynthesisResult R = synthesizeWithLazyBounds(*P);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.Plan.Kind, Scenario::ConstPrefix);
  bool Logged = false;
  for (const std::string &S : R.StageLog)
    Logged |= S.find("lazy-bounds: plan re-verified at m<=4, len<=4") !=
              std::string::npos;
  EXPECT_TRUE(Logged);
}

TEST(LazyBounds, TinyInitialBoundsGetEscalated) {
  // With a 1-segment bound every merge is vacuously "correct"; the lazy
  // loop must catch the overfit plan at 2 segments and re-synthesize.
  const lang::SerialProgram *P = lang::findBenchmark("count_run1");
  SynthOptions Opts;
  Opts.Bounds.MinSegments = 1;
  Opts.Bounds.MaxSegments = 1;
  Opts.Bounds.MaxLen = 2;
  Opts.CorpusTests = 0; // no corpus screen: rely on verification alone.
  SynthesisResult R = synthesizeWithLazyBounds(*P, Opts, /*Widen=*/1,
                                               /*MaxRounds=*/4);
  ASSERT_TRUE(R.Success);
  std::string Log;
  for (const std::string &L : R.StageLog)
    Log += L + "\n";
  EXPECT_NE(Log.find("lazy-bounds: refuted at wider bounds, "
                     "re-synthesizing\n"),
            std::string::npos)
      << Log;
  // The final plan must be right on random data despite the tiny start.
  Rng Rand(5);
  for (int Trial = 0; Trial != 30; ++Trial) {
    Segments Segs(2 + Rand.next() % 3);
    for (auto &S : Segs)
      S = randomFromAlphabet(Rand, P->InputAlphabet, 1 + Rand.next() % 7);
    EXPECT_EQ(runPlanConcrete(*P, R.Plan, Segs),
              lang::runSerialSegmented(*P, Segs));
  }
}

TEST(UserTemplates, ExtraMergeWinsStageZero) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  SynthOptions Opts;
  MergeFn M;
  M.Combine = {add(var("a_s", TypeKind::Int), var("b_s", TypeKind::Int))};
  Opts.ExtraMerges.push_back(M);
  SynthesisResult R = synthesize(*P, Opts);
  ASSERT_TRUE(R.Success);
  ASSERT_FALSE(R.StageLog.empty());
  EXPECT_NE(R.StageLog[0].find("stage0-user"), std::string::npos);
  EXPECT_NE(R.StageLog[0].find("solved"), std::string::npos);
}

TEST(UserTemplates, WrongExtraMergeIsRejectedGracefully) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  SynthOptions Opts;
  MergeFn M;
  M.Combine = {smax(var("a_s", TypeKind::Int), var("b_s", TypeKind::Int))};
  Opts.ExtraMerges.push_back(M);
  SynthesisResult R = synthesize(*P, Opts);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.Group, "B1"); // fell through to the built-in stage 1.
}

TEST(UserTemplates, ExtraPrefixCondIsTriedFirst) {
  const lang::SerialProgram *P = lang::findBenchmark("count_102");
  SynthOptions Opts;
  Opts.ExtraPrefixConds = {
      eq(var(lang::inputVarName(), TypeKind::Int), constInt(2))};
  SynthesisResult R = synthesize(*P, Opts);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.Group, "B4");
  EXPECT_EQ(toString(R.Plan.Cond.PrefixCond), "(in == 2)");
}

TEST(SeedInputs, EnterTheCorpus) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  SynthOptions Opts;
  Opts.SeedInputs.push_back({{1, 2}, {3}});
  SynthesisResult R = synthesize(*P, Opts);
  EXPECT_TRUE(R.Success);
}

} // namespace
