//===- tests/runtime_kernels_test.cpp - Kernels vs reference semantics ----==//
//
// Cross-checks the compiled runtime kernels against (a) the serial
// reference interpreter and (b) the domain-generic plan executor, for
// every benchmark, over randomized workloads and segmentations.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Runner.h"
#include "support/Random.h"
#include "synth/Grassp.h"
#include "synth/PlanEval.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace grassp;
using namespace grassp::lang;
using namespace grassp::runtime;
using namespace grassp::synth;

namespace {

class KernelBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelBenchmark, CompiledMatchesReference) {
  const SerialProgram *P = findBenchmark(GetParam());
  ASSERT_NE(P, nullptr);
  SynthesisResult R = synthesize(*P);
  ASSERT_TRUE(R.Success) << R.FailureReason;

  CompiledProgram CP(*P);
  CompiledPlan Plan(*P, R.Plan);

  Rng Rand(0x5151);
  for (int Trial = 0; Trial != 25; ++Trial) {
    size_t N = 40 + Rand.next() % 400;
    std::vector<int64_t> Data = generateWorkload(*P, N, Rand.next());
    unsigned M = 2 + Rand.next() % 6;
    std::vector<SegmentView> Segs = partition(Data, M);

    // Reference serial result via the interpreter.
    Segments RefSegs;
    for (const SegmentView &S : Segs)
      RefSegs.emplace_back(S.Data, S.Data + S.Size);
    int64_t Expected = runSerialSegmented(*P, RefSegs);

    // Compiled serial kernel.
    EXPECT_EQ(CP.runSerial(Segs), Expected);

    // Compiled parallel kernel (sequential workers).
    ParallelRunResult PR = runParallel(Plan, Segs, nullptr);
    EXPECT_EQ(PR.Output, Expected) << P->Name << " trial " << Trial;

    // Compiled parallel kernel on a real thread pool.
    ThreadPool Pool(3);
    ParallelRunResult PT = runParallel(Plan, Segs, &Pool);
    EXPECT_EQ(PT.Output, Expected);

    // Reference plan executor agrees too.
    EXPECT_EQ(runPlanConcrete(*P, R.Plan, RefSegs), Expected);
  }
}

// max_sum_zeros sums the elements between zeros in a `+` accumulator.
// Here its prefixes, suffixes and whole runs sum past INT64_MAX, so the
// summary tables, their composition and the boundary combine must wrap
// exactly as the serial fold does (ir/Arith.h), on every bracketing.
TEST(CondPrefixKernels, PlusAccumulatorWrapsLikeTheSerialFold) {
  const SerialProgram *P = findBenchmark("max_sum_zeros");
  ASSERT_NE(P, nullptr);
  SynthesisResult R = synthesize(*P);
  ASSERT_TRUE(R.Success) << R.FailureReason;
  ASSERT_EQ(R.Plan.Kind, Scenario::CondPrefixSummary);
  CompiledPlan Plan(*P, R.Plan);

  const int64_t Max = INT64_MAX;
  std::vector<std::vector<int64_t>> Segs = {
      {Max, 1, 0, Max, 2},    // prefix and suffix sums wrap
      {3, Max, Max},          // no boundary: all prefix
      {Max, 1, 0, 5, Max, 0}, // continues the wrapped run
      {Max, Max, 0, Max},
      {1, 2, 0, 7}};
  std::vector<int64_t> All;
  std::vector<SegmentView> Views;
  for (const std::vector<int64_t> &S : Segs) {
    All.insert(All.end(), S.begin(), S.end());
    Views.push_back({S.data(), S.size()});
  }
  int64_t Expected = runSerial(*P, All);

  std::vector<WorkerOutput> W;
  for (SegmentView S : Views)
    W.push_back(Plan.runWorker(S));
  WorkerOutput Left;
  for (const WorkerOutput &O : W)
    Plan.combine(Left, O);
  EXPECT_EQ(Plan.finish(Left), Expected);
  WorkerOutput Right;
  for (size_t I = W.size(); I-- > 0;) {
    WorkerOutput Acc = W[I];
    Plan.combine(Acc, Right);
    Right = std::move(Acc);
  }
  EXPECT_EQ(Right, Left);
  EXPECT_EQ(Plan.runWorker({All.data(), All.size()}), Left);

  EXPECT_EQ(runParallel(Plan, Views, nullptr).Output, Expected);
  ThreadPool Pool(2);
  EXPECT_EQ(runParallel(Plan, Views, &Pool).Output, Expected);
}

std::vector<std::string> allNames() {
  std::vector<std::string> Names;
  for (const SerialProgram &P : allBenchmarks())
    Names.push_back(P.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Table1, KernelBenchmark,
                         ::testing::ValuesIn(allNames()),
                         [](const auto &Info) { return Info.param; });

} // namespace
