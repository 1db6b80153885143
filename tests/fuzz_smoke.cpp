//===- tests/fuzz_smoke.cpp - Bounded differential-oracle smoke tier ------==//
//
// The fixed-seed, seconds-bounded slice of the fuzz harness that runs on
// every ctest invocation: representative benchmarks from each Table-1
// group sweep the adversarial shape set through every execution tier
// with zero divergences, every benchmark's tiers are cross-checked
// against the interpreter on fuzz-generated workloads, the emitted-C++
// path is exercised on one benchmark (skipped without a host compiler),
// and a deliberately broken merge rule is planted to prove the oracle
// actually catches and minimizes divergences. The open-ended soak lives
// in `grassp fuzz --seconds N`.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"
#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Kernels.h"
#include "runtime/Workload.h"
#include "synth/Grassp.h"
#include "testing/DiffOracle.h"
#include "testing/Fuzz.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

namespace gt = grassp::testing;
using grassp::lang::SerialProgram;
using grassp::lang::findBenchmark;

namespace {

gt::FuzzOptions smokeOptions() {
  gt::FuzzOptions Opts;
  Opts.Seed = 1;          // fixed: this tier must be deterministic.
  Opts.Seconds = 0;       // one bounded sweep, no open-ended rounds.
  Opts.Segments = 4;
  Opts.UseEmitted = false; // the 4th path is covered once, below.
  Opts.Sizes = {0, 1, 2, 3, 17, 64};
  return Opts;
}

// One representative per Table-1 group (B1, B2, B3, two B4 flavors, and
// the bag plan) through the all-tier oracle across every adversarial
// shape. Zero divergences expected, and the path count pins which tiers
// engaged: specializable steps (sum, second_max) add the fused native
// path on top of interp/vm/loop-vm/plan+pool, while the bag program has
// only the hash-set tier.
class Representative : public ::testing::TestWithParam<std::string> {};

TEST_P(Representative, NoDivergenceAcrossAdversarialShapes) {
  const SerialProgram *P = findBenchmark(GetParam());
  ASSERT_NE(P, nullptr);
  grassp::synth::SynthesisResult R = grassp::synth::synthesize(*P);
  ASSERT_TRUE(R.Success) << R.FailureReason;

  gt::FuzzReport Rep = gt::fuzzBenchmark(*P, R.Plan, smokeOptions());
  EXPECT_FALSE(Rep.Diverged)
      << Rep.Shape << " seed " << Rep.Seed << ": " << Rep.Detail
      << "\n  reproducer: " << gt::DiffOracle::formatInput(Rep.Reproducer);
  // Path count pins which tiers engaged. Bag programs have only the
  // hash-set tier; scalar programs run interp + vm + loop-vm + plan+pool,
  // plus the fused path when the step specializes, plus the jit-compiled
  // native path whenever a host compiler exists. Every program adds the
  // random ⊕ tree over the segment summaries, the source-backed parallel
  // run and the MergeTree replay — the bounded streaming slice of this
  // smoke tier.
  grassp::runtime::CompiledProgram CP(*P);
  unsigned WantPaths;
  if (GetParam() == "count_distinct") {
    WantPaths = 6u;
  } else {
    WantPaths = 7u;
    if (CP.tierAvailable(grassp::runtime::ExecTier::Specialized))
      ++WantPaths;
    if (CP.tierAvailable(grassp::runtime::ExecTier::Native))
      ++WantPaths;
  }
  EXPECT_EQ(Rep.PathsCompared, WantPaths);
  // The native tier must actually participate when a compiler exists.
  if (GetParam() != "count_distinct" &&
      gt::DiffOracle::hostCompilerAvailable()) {
    EXPECT_TRUE(CP.tierAvailable(grassp::runtime::ExecTier::Native))
        << "host compiler available but native tier absent";
  }
  EXPECT_GT(Rep.Checks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Groups, Representative,
                         ::testing::Values("sum",            // B1
                                           "second_max",     // B2
                                           "is_sorted",      // B3
                                           "count_102",      // B4
                                           "max_dist_ones",  // B4 max-acc
                                           "count_distinct"),// bag
                         [](const auto &Info) { return Info.param; });

// The emitted-C++ path on one benchmark: compile once, then replay the
// same shapes through the binary's file-input hook. sum runs all five
// in-process paths plus the emitted binary.
TEST(FuzzSmoke, EmittedPathAgreesOnSum) {
  if (!gt::DiffOracle::hostCompilerAvailable())
    GTEST_SKIP() << "no host g++; the in-process tiers are already covered";
  const SerialProgram *P = findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  grassp::synth::SynthesisResult R = grassp::synth::synthesize(*P);
  ASSERT_TRUE(R.Success);

  gt::FuzzOptions Opts = smokeOptions();
  Opts.UseEmitted = true;
  Opts.Sizes = {0, 1, 3, 17, 64};
  gt::FuzzReport Rep = gt::fuzzBenchmark(*P, R.Plan, Opts);
  EXPECT_FALSE(Rep.Diverged) << Rep.Shape << ": " << Rep.Detail;
  // interp + vm + loop-vm + fused + plan+pool + summary-tree + source+pool
  // + merge-tree + emitted, plus the native jit path (this test already skipped
  // without a host compiler, so the native tier is absent only if its
  // compile failed).
  grassp::runtime::CompiledProgram CP(*P);
  unsigned WantPaths =
      9u + (CP.tierAvailable(grassp::runtime::ExecTier::Native) ? 1u : 0u);
  EXPECT_EQ(Rep.PathsCompared, WantPaths);
}

// The tier-equivalence property, plan-free so it covers all 27
// benchmarks cheaply: every execution tier a program supports must match
// the reference interpreter on fuzz-generated workloads across
// adversarial segment shapes. This is the certification path for the
// peephole optimizer (loop-vm runs optimized bytecode, the per-element
// tier runs it unoptimized) and the specialized native kernels.
TEST(FuzzSmoke, AllTiersMatchInterpreterOnFuzzedWorkloads) {
  namespace rt = grassp::runtime;
  constexpr rt::ExecTier AllTiers[] = {rt::ExecTier::Specialized,
                                       rt::ExecTier::Native,
                                       rt::ExecTier::LoopVM,
                                       rt::ExecTier::PerElement};
  unsigned SpecializedSeen = 0, NativeSeen = 0;
  for (const SerialProgram &P : grassp::lang::allBenchmarks()) {
    rt::CompiledProgram CP(P);
    SpecializedSeen += CP.tierAvailable(rt::ExecTier::Specialized) ? 1 : 0;
    NativeSeen += CP.tierAvailable(rt::ExecTier::Native) ? 1 : 0;
    for (size_t N : {size_t{0}, size_t{1}, size_t{3}, size_t{17},
                     size_t{64}, size_t{257}}) {
      for (uint64_t Seed : {uint64_t{1}, uint64_t{99}}) {
        std::vector<int64_t> Data = rt::generateWorkload(P, N, Seed);
        int64_t Want = grassp::lang::runSerial(P, Data);
        for (const rt::SegmentShape &Shape :
             rt::adversarialShapes(N, 4)) {
          std::vector<rt::SegmentView> Views =
              rt::segmentsFromLengths(Data, Shape.Lens);
          for (rt::ExecTier T : AllTiers) {
            if (!CP.tierAvailable(T))
              continue;
            EXPECT_EQ(CP.runSerialTier(T, Views), Want)
                << P.Name << " tier=" << rt::execTierName(T) << " N=" << N
                << " seed=" << Seed << " shape=" << Shape.Name;
          }
        }
      }
    }
  }
  // The kernel specializer must actually engage on the sum/min/max/
  // counted-extrema family (plus the bag program's hash-set kernel).
  EXPECT_GE(SpecializedSeen, 15u);
  // And with a host compiler present, the jit tier must participate on
  // every scalar benchmark — a silent fallback to the loop VM here would
  // mean the native path is never differentially certified.
  if (gt::DiffOracle::hostCompilerAvailable()) {
    EXPECT_GE(NativeSeen, 20u);
  }
}

// Plant a bug: sum's merge combines partial sums with subtraction
// instead of addition. The oracle must catch it on the sweep and shrink
// the reproducer to a near-minimal segmented input that still diverges.
TEST(FuzzSmoke, BrokenMergeIsCaughtAndMinimized) {
  const SerialProgram *P = findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  grassp::synth::SynthesisResult R = grassp::synth::synthesize(*P);
  ASSERT_TRUE(R.Success);
  ASSERT_EQ(R.Plan.Kind, grassp::synth::Scenario::NoPrefix);
  ASSERT_EQ(R.Plan.Merge.Combine.size(), 1u);

  grassp::synth::ParallelPlan Broken = R.Plan;
  const std::string &F = P->State.field(0).Name;
  Broken.Merge.Combine[0] =
      grassp::ir::sub(grassp::ir::var("a_" + F, grassp::ir::TypeKind::Int),
                      grassp::ir::var("b_" + F, grassp::ir::TypeKind::Int));

  gt::FuzzReport Rep = gt::fuzzBenchmark(*P, Broken, smokeOptions());
  ASSERT_TRUE(Rep.Diverged) << "sabotaged merge was not detected";
  EXPECT_FALSE(Rep.Detail.empty());

  // The reproducer still diverges under a fresh oracle...
  gt::OracleConfig OC;
  OC.UseEmitted = false;
  gt::DiffOracle Oracle(*P, Broken, OC);
  EXPECT_TRUE(Oracle.check(Rep.Reproducer).Diverged);
  // ...and was genuinely shrunk: a - b != a + b needs exactly two
  // non-empty single-element segments with a nonzero second element.
  size_t Elems = 0, NonEmpty = 0;
  for (const std::vector<int64_t> &S : Rep.Reproducer) {
    Elems += S.size();
    NonEmpty += S.empty() ? 0 : 1;
  }
  EXPECT_EQ(NonEmpty, 2u) << gt::DiffOracle::formatInput(Rep.Reproducer);
  EXPECT_LE(Elems, 2u) << gt::DiffOracle::formatInput(Rep.Reproducer);
}

// The shape generator must actually produce the degenerate geometry the
// verifier's non-empty data model never sees: every shape covers N
// exactly, and empty and length-1 segments both appear whenever the
// geometry admits them (including M > N, which forces empties).
TEST(FuzzSmoke, AdversarialShapesCoverDegenerateGeometry) {
  using grassp::runtime::SegmentShape;
  for (size_t N : {0u, 1u, 2u, 5u, 64u}) {
    for (unsigned M : {1u, 4u, 7u}) {
      std::vector<SegmentShape> Shapes =
          grassp::runtime::adversarialShapes(N, M);
      ASSERT_FALSE(Shapes.empty());
      bool SawEmptySegment = false, SawSingleton = false;
      for (const SegmentShape &S : Shapes) {
        EXPECT_EQ(std::accumulate(S.Lens.begin(), S.Lens.end(), size_t{0}),
                  N)
            << S.Name;
        for (size_t L : S.Lens) {
          SawEmptySegment |= L == 0;
          SawSingleton |= L == 1;
        }
      }
      if (M > 1 && N >= 2) {
        EXPECT_TRUE(SawEmptySegment) << "N=" << N << " M=" << M;
        EXPECT_TRUE(SawSingleton) << "N=" << N << " M=" << M;
      }
      if (N < M) { // more segments than elements forces empties.
        EXPECT_TRUE(SawEmptySegment);
      }
    }
  }
}

// Workload-parser fuzz: round-trip seeded random workloads through the
// headered file format, then feed the parser every strict prefix of a
// file — each simulated truncation must be rejected, never folded.
TEST(FuzzSmoke, WorkloadParserRejectsEveryTruncation) {
  namespace rt = grassp::runtime;
  const SerialProgram *P = findBenchmark("sum");
  ASSERT_NE(P, nullptr);
  const std::string Path =
      ::testing::TempDir() + "grassp_fuzz_workload.txt";

  for (uint64_t Seed : {uint64_t{1}, uint64_t{42}}) {
    std::vector<int64_t> Data = rt::generateWorkload(*P, 9, Seed);
    std::string Content = rt::workloadFileHeader(Data.size()) + "\n";
    for (int64_t V : Data)
      Content += std::to_string(V) + "\n";

    auto writeFile = [&](const std::string &Text) {
      std::ofstream Out(Path, std::ios::trunc);
      Out << Text;
    };
    writeFile(Content);
    EXPECT_EQ(rt::loadWorkloadFile(Path), Data); // round-trips intact.

    // Every prefix losing at least the last element is a possible torn
    // write. The header makes all of them detectable: either a
    // malformed line or a count mismatch, never a silent short read.
    // (A cut inside the final number's digits can leave a shorter but
    // still-valid value with a matching count, so stop one line early;
    // and the 0-byte prefix is skipped — it is a valid empty bare-format
    // file, the one truncation no in-band format can flag.)
    size_t LastLine = std::to_string(Data.back()).size() + 1;
    for (size_t Cut = 1; Cut <= Content.size() - LastLine; ++Cut) {
      writeFile(Content.substr(0, Cut));
      EXPECT_THROW(rt::loadWorkloadFile(Path), rt::WorkloadParseError)
          << "prefix of " << Cut << " bytes parsed (seed " << Seed << ")";
    }
  }
  std::remove(Path.c_str());
}

// The oracle itself on hand-built degenerate inputs — all-empty input,
// single element among empties, M > N — for a boundary-sensitive plan.
TEST(FuzzSmoke, HandPickedDegenerateInputsAgree) {
  const SerialProgram *P = findBenchmark("is_sorted");
  ASSERT_NE(P, nullptr);
  grassp::synth::SynthesisResult R = grassp::synth::synthesize(*P);
  ASSERT_TRUE(R.Success);
  gt::OracleConfig OC;
  OC.UseEmitted = false;
  gt::DiffOracle Oracle(*P, R.Plan, OC);

  EXPECT_FALSE(Oracle.check({}).Diverged);
  EXPECT_FALSE(Oracle.check({{}, {}, {}}).Diverged);
  EXPECT_FALSE(Oracle.check({{}, {7}, {}}).Diverged);
  EXPECT_FALSE(Oracle.check({{1, 2}, {}, {2, 1}}).Diverged);
  EXPECT_FALSE(Oracle.check({{3}, {2}, {}, {1}}).Diverged);
}

} // namespace
