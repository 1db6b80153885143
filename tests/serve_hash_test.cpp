//===- tests/serve_hash_test.cpp - Canonical program hash + rebinding -----==//
//
// The solution-cache key contract (serve/CanonHash.h): invariant under
// alpha-renaming, field reordering and formatting; distinct across all
// Table-1 benchmarks; stable across runs and builds (golden values); and
// rebindPlanToProgram really does port a cached plan onto a renamed /
// reordered variant — checked semantically by running the rebound plan
// segment-parallel against the variant's serial fold.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Kernels.h"
#include "runtime/Workload.h"
#include "serve/CanonHash.h"
#include "serve/ProgramText.h"
#include "synth/Grassp.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace grassp;

namespace {

lang::SerialProgram parseOrDie(const std::string &Text) {
  lang::SerialProgram P;
  std::string Err;
  EXPECT_TRUE(serve::parseProgramText(Text, &P, &Err)) << Err << "\n" << Text;
  return P;
}

// The `average` benchmark in its canonical spelling and two structural
// twins: fields renamed, and fields renamed AND declared in the other
// order (steps and output rewritten consistently).
const char *AverageCanon =
    "(program (name average) (state (s int 0) (cnt int 0)) "
    "(step (s (add s in)) (cnt (add cnt 1))) "
    "(output (ite (eq cnt 0) 0 (div s cnt))) (range -100 100))";
const char *AverageRenamed =
    "(program (name avg2) (state (total int 0) (n int 0)) "
    "(step (total (add total in)) (n (add n 1))) "
    "(output (ite (eq n 0) 0 (div total n))) (range -100 100))";
const char *AverageReordered =
    "(program (name avg3) (state (n int 0) (total int 0)) "
    "(step (n (add n 1)) (total (add total in))) "
    "(output (ite (eq n 0) 0 (div total n))) (range -100 100))";

} // namespace

TEST(CanonHash, TextRoundTripPreservesHashForEveryBenchmark) {
  for (const lang::SerialProgram &P : lang::allBenchmarks()) {
    std::string Text = serve::printProgramText(P);
    lang::SerialProgram Back = parseOrDie(Text);
    EXPECT_EQ(serve::canonicalProgramHash(P),
              serve::canonicalProgramHash(Back))
        << P.Name;
    // The printer is a canonical form: print(parse(print(P))) is print(P).
    EXPECT_EQ(serve::printProgramText(Back), Text) << P.Name;
  }
}

TEST(CanonHash, AlphaRenamingAndReorderingAreInvisible) {
  uint64_t Canon = serve::canonicalProgramHash(parseOrDie(AverageCanon));
  EXPECT_EQ(Canon, serve::canonicalProgramHash(parseOrDie(AverageRenamed)));
  EXPECT_EQ(Canon,
            serve::canonicalProgramHash(parseOrDie(AverageReordered)));
}

TEST(CanonHash, FormattingIsInvisible) {
  std::string Spaced =
      "(program   (name average)\n\t(state (s int 0)   (cnt int 0))\n"
      "  (step (s (add s in)) (cnt (add cnt 1)))\n"
      "  (output (ite (eq cnt 0) 0 (div s cnt)))\n  (range -100 100))";
  EXPECT_EQ(serve::canonicalProgramHash(parseOrDie(AverageCanon)),
            serve::canonicalProgramHash(parseOrDie(Spaced)));
}

TEST(CanonHash, MeaningChangesMoveTheHash) {
  uint64_t Canon = serve::canonicalProgramHash(parseOrDie(AverageCanon));
  // A different init, a different step operator, a different output.
  const char *InitChanged =
      "(program (name x) (state (s int 1) (cnt int 0)) "
      "(step (s (add s in)) (cnt (add cnt 1))) "
      "(output (ite (eq cnt 0) 0 (div s cnt))) (range -100 100))";
  const char *StepChanged =
      "(program (name x) (state (s int 0) (cnt int 0)) "
      "(step (s (sub s in)) (cnt (add cnt 1))) "
      "(output (ite (eq cnt 0) 0 (div s cnt))) (range -100 100))";
  const char *OutputChanged =
      "(program (name x) (state (s int 0) (cnt int 0)) "
      "(step (s (add s in)) (cnt (add cnt 1))) (output s) "
      "(range -100 100))";
  EXPECT_NE(Canon, serve::canonicalProgramHash(parseOrDie(InitChanged)));
  EXPECT_NE(Canon, serve::canonicalProgramHash(parseOrDie(StepChanged)));
  EXPECT_NE(Canon, serve::canonicalProgramHash(parseOrDie(OutputChanged)));
}

TEST(CanonHash, AllBenchmarksPairwiseDistinct) {
  std::map<uint64_t, std::string> Seen;
  for (const lang::SerialProgram &P : lang::allBenchmarks()) {
    uint64_t H = serve::canonicalProgramHash(P);
    auto It = Seen.find(H);
    EXPECT_TRUE(It == Seen.end())
        << P.Name << " collides with " << (It == Seen.end() ? "" : It->second);
    Seen.emplace(H, P.Name);
  }
  EXPECT_GE(Seen.size(), 20u); // the Table-1 suite is not tiny.
}

TEST(CanonHash, GoldenKeysAreStableAcrossRunsAndBuilds) {
  // Frozen values of CanonHashVersion=1. If an intentional scheme change
  // breaks these, bump CanonHashVersion (stale caches must MISS, never
  // collide) and re-freeze.
  auto KeyOf = [](const char *Name) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    EXPECT_NE(P, nullptr) << Name;
    return serve::canonicalProgramKey(*P);
  };
  EXPECT_EQ(KeyOf("count"), "801be0d43f9c0ccf");
  EXPECT_EQ(KeyOf("sum"), "627710cb9a594e6e");
  EXPECT_EQ(KeyOf("max_elem"), "7e778e371bdbfc53");
}

TEST(CanonHash, KeyHexRoundTrip) {
  for (uint64_t K : {0ull, 1ull, 0x801be0d43f9c0ccfull, ~0ull}) {
    uint64_t Back = 0;
    EXPECT_TRUE(serve::keyFromHex(serve::keyToHex(K), &Back));
    EXPECT_EQ(K, Back);
  }
  uint64_t Out;
  EXPECT_FALSE(serve::keyFromHex("", &Out));
  EXPECT_FALSE(serve::keyFromHex("xyz", &Out));
  EXPECT_FALSE(serve::keyFromHex("0123456789abcdef0", &Out)); // too long
}

TEST(CanonHash, PlanTextRoundTrip) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  synth::SynthesisResult R = synth::synthesize(*P);
  ASSERT_TRUE(R.Success);
  std::string Text = serve::printPlanText(R.Plan);
  synth::ParallelPlan Back;
  std::string Err;
  ASSERT_TRUE(serve::parsePlanText(Text, *P, &Back, &Err)) << Err;
  EXPECT_EQ(serve::printPlanText(Back), Text);
}

TEST(CanonHash, RebindPortsAPlanOntoARenamedReorderedVariant) {
  // Synthesize for the canonical spelling, rebind onto the reordered
  // twin, then prove the rebound plan COMPUTES the right thing: worker
  // fold per segment + certified merge == the variant's serial fold.
  lang::SerialProgram From = parseOrDie(AverageCanon);
  lang::SerialProgram To = parseOrDie(AverageReordered);
  ASSERT_EQ(serve::canonicalProgramHash(From),
            serve::canonicalProgramHash(To));

  synth::SynthesisResult R = synth::synthesize(From);
  ASSERT_TRUE(R.Success) << R.FailureReason;

  synth::ParallelPlan Rebound;
  ASSERT_TRUE(serve::rebindPlanToProgram(R.Plan, From, To, &Rebound));

  runtime::CompiledPlan CP(To, Rebound);
  std::vector<int64_t> Data = runtime::generateWorkload(To, 4096, 42);
  std::vector<runtime::SegmentView> Segs = runtime::partition(Data, 7);
  std::vector<runtime::WorkerOutput> Outs;
  for (const runtime::SegmentView &S : Segs)
    Outs.push_back(CP.runWorker(S));
  EXPECT_EQ(CP.merge(Outs), lang::runSerial(To, Data));
}

TEST(CanonHash, RebindRefusesNonCorrespondingPrograms) {
  lang::SerialProgram From = parseOrDie(AverageCanon);
  const lang::SerialProgram *Other = lang::findBenchmark("second_max");
  ASSERT_NE(Other, nullptr);
  synth::SynthesisResult R = synth::synthesize(From);
  ASSERT_TRUE(R.Success);
  synth::ParallelPlan Out;
  EXPECT_FALSE(serve::rebindPlanToProgram(R.Plan, From, *Other, &Out));
}
