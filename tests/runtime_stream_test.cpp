//===- tests/runtime_stream_test.cpp - Out-of-core sources + MergeTree ----==//
//
// Differential coverage for ROADMAP item 3: (1) every SegmentSource
// kind (in-memory, mmap'ed binary, chunked text) yields
// bit-identical fold results on every execution tier and through the
// parallel runner, with source chunk boundaries deliberately misaligned
// from the plan's segment shapes; (2) the MergeTree's incremental
// append/replace answers match a from-scratch refold of the reference
// interpreter after EVERY update, across randomized edit sequences and
// the adversarial chunk geometries (all size-1 chunks, one giant chunk,
// coprime boundary mismatch); (3) on every benchmark's winner, the
// segment summaries joined by ⊕ over random trees give the serial
// output, and cond-prefix summaries compose exactly.
//
// The soundness argument for ⊕ lives in MergeTree.h; this file is the
// experimental check that it really is associative on the summaries
// workers produce, for every benchmark we ship.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Kernels.h"
#include "runtime/MergeTree.h"
#include "runtime/Runner.h"
#include "runtime/SegmentSource.h"
#include "runtime/Workload.h"
#include "support/Random.h"
#include "synth/Grassp.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace grassp;
using namespace grassp::runtime;

namespace {

/// Benchmarks spanning every plan family: NoPrefix scalar (sum,
/// delta_max_min), ConstPrefix (is_sorted), conditional-prefix
/// summaries (count_102), and the refold/bag path (count_distinct).
const char *const Families[] = {"sum", "delta_max_min", "is_sorted",
                                "count_102", "count_distinct"};

struct Compiled {
  const lang::SerialProgram *P;
  synth::SynthesisResult R;
  std::unique_ptr<CompiledPlan> Plan;
  std::unique_ptr<CompiledProgram> Prog;
};

/// Synthesizes (cached across tests — Z3 is not free) and compiles \p
/// Name with the given tier toggles.
Compiled compile(const char *Name, bool Specialize = true,
                 bool Native = true) {
  static std::map<std::string, synth::SynthesisResult> Cache;
  Compiled C;
  C.P = lang::findBenchmark(Name);
  EXPECT_NE(C.P, nullptr) << Name;
  auto It = Cache.find(Name);
  if (It == Cache.end()) {
    It = Cache.emplace(Name, synth::synthesize(*C.P)).first;
    EXPECT_TRUE(It->second.Success) << Name;
  }
  C.R = It->second;
  C.Plan.reset(new CompiledPlan(*C.P, C.R.Plan, Specialize, Native));
  C.Prog.reset(new CompiledProgram(*C.P, Specialize, Native));
  return C;
}

/// Ground truth: the tree-walking interpreter over the flat data.
int64_t refold(const lang::SerialProgram &P,
               const std::vector<int64_t> &Flat) {
  return lang::runSerial(P, Flat);
}

/// Carves \p Data into random non-empty chunks.
std::vector<std::vector<int64_t>> randomChunks(
    const std::vector<int64_t> &Data, Rng &R) {
  std::vector<std::vector<int64_t>> Chunks;
  size_t I = 0;
  while (I != Data.size()) {
    size_t Len = 1 + R.next() % 9;
    if (Len > Data.size() - I)
      Len = Data.size() - I;
    Chunks.emplace_back(Data.begin() + I, Data.begin() + I + Len);
    I += Len;
  }
  return Chunks;
}

std::vector<int64_t> flatten(const std::vector<std::vector<int64_t>> &Cs) {
  std::vector<int64_t> Flat;
  for (const std::vector<int64_t> &C : Cs)
    Flat.insert(Flat.end(), C.begin(), C.end());
  return Flat;
}

/// Appends every chunk, checking the root after each append; then
/// applies \p Edits random single-chunk replacements, checking after
/// each one. Every check is against a full interpreter refold.
void differentialStream(const Compiled &C,
                        std::vector<std::vector<int64_t>> Chunks,
                        unsigned Edits, uint64_t Seed) {
  Rng R(Seed);
  MergeTree Tree(*C.Plan);
  std::vector<std::vector<int64_t>> Current;
  for (const std::vector<int64_t> &Chunk : Chunks) {
    Tree.append({Chunk.data(), Chunk.size()});
    Current.push_back(Chunk);
    ASSERT_EQ(Tree.query(), refold(*C.P, flatten(Current)))
        << C.P->Name << " after append of chunk " << Current.size() - 1;
  }
  for (unsigned E = 0; E != Edits; ++E) {
    size_t I = R.next() % Current.size();
    // Replacements may change the chunk's length (including down to 1).
    size_t Len = 1 + R.next() % 7;
    std::vector<int64_t> Repl(Len);
    for (int64_t &V : Repl)
      V = static_cast<int64_t>(R.next() % 7) - 3;
    Tree.replace(I, {Repl.data(), Repl.size()});
    Current[I] = std::move(Repl);
    ASSERT_EQ(Tree.query(), refold(*C.P, flatten(Current)))
        << C.P->Name << " after replace of chunk " << I;
  }
}

TEST(MergeTree, RandomizedAppendReplaceMatchesRefoldOnEveryTier) {
  // Tier toggles steer CompiledPlan's worker path: (specialized or
  // native), native-only, and the pure-VM fallback.
  const bool Toggles[][2] = {{true, true}, {false, true}, {false, false}};
  for (const char *Name : Families) {
    std::vector<int64_t> Data =
        generateWorkload(*lang::findBenchmark(Name), 400, 11);
    for (const bool *T : Toggles) {
      Compiled C = compile(Name, T[0], T[1]);
      Rng R(101);
      differentialStream(C, randomChunks(Data, R), /*Edits=*/25,
                         /*Seed=*/202);
    }
  }
}

TEST(MergeTree, AdversarialChunkShapes) {
  for (const char *Name : Families) {
    Compiled C = compile(Name);
    std::vector<int64_t> Data =
        generateWorkload(*C.P, 127, 23); // odd count: worst tree shape.

    // Every element its own chunk: maximal tree depth, every internal
    // node's repair prefix is a single element.
    std::vector<std::vector<int64_t>> Ones;
    for (int64_t V : Data)
      Ones.push_back({V});
    differentialStream(C, Ones, /*Edits=*/15, /*Seed=*/303);

    // One giant chunk: the degenerate single-leaf tree.
    differentialStream(C, {Data}, /*Edits=*/5, /*Seed=*/404);

    // Two-chunk split at position 1: the rightmost-state repair has a
    // one-element left neighbour.
    std::vector<std::vector<int64_t>> Lop = {
        {Data[0]}, std::vector<int64_t>(Data.begin() + 1, Data.end())};
    differentialStream(C, Lop, /*Edits=*/10, /*Seed=*/505);
  }
}

TEST(MergeTree, RejectsEmptyChunksAndEmptyQueries) {
  Compiled C = compile("sum");
  MergeTree Tree(*C.Plan);
  EXPECT_THROW(Tree.query(), std::logic_error);
  EXPECT_THROW(Tree.append({nullptr, 0}), std::invalid_argument);
  int64_t V = 4;
  Tree.append({&V, 1});
  EXPECT_EQ(Tree.query(), 4);
  EXPECT_THROW(Tree.replace(1, {&V, 1}), std::out_of_range);
}

/// Joins \p W[Lo, Hi) by ⊕ over a random binary tree.
WorkerOutput foldRandomTree(const CompiledPlan &Plan,
                            const std::vector<WorkerOutput> &W, size_t Lo,
                            size_t Hi, Rng &R) {
  if (Hi - Lo <= 1)
    return Lo == Hi ? WorkerOutput() : W[Lo];
  size_t Mid = Lo + 1 + R.next() % (Hi - Lo - 1);
  WorkerOutput Left = foldRandomTree(Plan, W, Lo, Mid, R);
  Plan.combine(Left, foldRandomTree(Plan, W, Mid, Hi, R));
  return Left;
}

TEST(SegmentSummary, RandomTreesMatchSerialOnEveryWinner) {
  for (const lang::SerialProgram &Prog : lang::allBenchmarks()) {
    Compiled C = compile(Prog.Name.c_str());
    const CompiledPlan &Plan = *C.Plan;
    bool Cond = C.R.Plan.Kind == synth::Scenario::CondPrefixSummary ||
                C.R.Plan.Kind == synth::Scenario::CondPrefixRefold;
    std::vector<int64_t> Data = generateWorkload(Prog, 8 * 12, 31);
    Rng R(77);
    for (unsigned Trial = 0; Trial != 60; ++Trial) {
      // Random split: 1-8 segments of 0-12 elements each.
      std::vector<std::vector<int64_t>> Segs(1 + R.next() % 8);
      size_t At = 0;
      for (std::vector<int64_t> &S : Segs) {
        size_t Len = R.next() % 13;
        S.assign(Data.begin() + At, Data.begin() + At + Len);
        At += Len;
      }
      std::vector<WorkerOutput> W;
      for (const std::vector<int64_t> &S : Segs)
        W.push_back(Plan.runWorker({S.data(), S.size()}));
      std::vector<int64_t> Flat = flatten(Segs);
      ASSERT_EQ(Plan.finish(foldRandomTree(Plan, W, 0, W.size(), R)),
                refold(Prog, Flat))
          << Prog.Name << " trial " << Trial;
      if (!Cond || Segs.size() < 2)
        continue;
      // Cond-prefix summaries compose exactly: W(A) ⊕ W(B) = W(A ++ B).
      std::vector<int64_t> AB = flatten({Segs[0], Segs[1]});
      WorkerOutput Joined = W[0];
      Plan.combine(Joined, W[1]);
      EXPECT_EQ(Joined, Plan.runWorker({AB.data(), AB.size()}))
          << Prog.Name << " trial " << Trial;
    }
  }
}

/// Writes \p Data as a headered text workload and returns the path.
std::string writeTextWorkload(const char *Name,
                              const std::vector<int64_t> &Data) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream Out(Path);
  Out << workloadFileHeader(Data.size()) << '\n';
  for (int64_t V : Data)
    Out << V << '\n';
  return Path;
}

TEST(SegmentSourceDiff, AllKindsAllTiersBitIdentical) {
  for (const char *Name : Families) {
    Compiled C = compile(Name);
    std::vector<int64_t> Data = generateWorkload(*C.P, 1000, 31);
    int64_t Want = refold(*C.P, Data);

    std::string Text = writeTextWorkload("grassp_stream_diff.txt", Data);
    std::string Bin = ::testing::TempDir() + "grassp_stream_diff.bin";
    convertTextToBinary(Text, Bin);

    // Chunk geometry coprime with the element count so chunk boundaries
    // land mid-stream everywhere (the segment/chunk mismatch case).
    SourceOptions Opts;
    Opts.ChunkElems = 77;

    std::vector<std::unique_ptr<SegmentSource>> Srcs;
    Srcs.push_back(openSegmentSource(Text, SourceKind::Memory, Opts));
    Srcs.push_back(openSegmentSource(Bin, SourceKind::Mmap, Opts));
    Srcs.push_back(openSegmentSource(Text, SourceKind::Chunked, Opts));
    // Binary files have one reader: Chunked opens them as mmap.
    EXPECT_STREQ(openSegmentSource(Bin, SourceKind::Chunked, Opts)->kind(),
                 "mmap");

    const ExecTier All[] = {ExecTier::PerElement, ExecTier::LoopVM,
                            ExecTier::Native, ExecTier::Specialized};
    for (const std::unique_ptr<SegmentSource> &S : Srcs) {
      ASSERT_EQ(S->elements(), Data.size());
      for (ExecTier T : All) {
        if (!C.Prog->tierAvailable(T))
          continue;
        EXPECT_EQ(C.Prog->runSerialSourceTier(T, *S), Want)
            << Name << " kind=" << S->kind() << " tier=" << execTierName(T);
      }
      // Parallel runner over the source's own (misaligned) chunks.
      ParallelRunResult PR = runParallel(*C.Plan, *S);
      EXPECT_EQ(PR.Output, Want) << Name << " kind=" << S->kind();
      // MergeTree replay of the same chunks.
      MergeTree Tree(*C.Plan);
      std::unique_ptr<SegmentCursor> Cur = S->cursor();
      for (size_t I = 0; I != S->chunkCount(); ++I)
        Tree.append(Cur->chunk(I));
      EXPECT_EQ(Tree.query(), Want) << Name << " kind=" << S->kind();
    }
    std::remove(Text.c_str());
    std::remove(Bin.c_str());
  }
}

TEST(SegmentSourceDiff, BinaryRoundTripAndWriterContract) {
  std::vector<int64_t> Data = {0, -1, 9223372036854775807LL,
                               -9223372036854775807LL - 1, 42};
  std::string Bin = ::testing::TempDir() + "grassp_stream_rt.bin";
  {
    BinaryWorkloadWriter W(Bin);
    W.append(Data);
    W.close();
    EXPECT_EQ(W.written(), Data.size());
  }
  EXPECT_TRUE(isBinaryWorkloadFile(Bin));
  std::unique_ptr<SegmentSource> S =
      openSegmentSource(Bin, SourceKind::Auto);
  EXPECT_STREQ(S->kind(), "mmap"); // Auto resolves binary files to mmap.
  ASSERT_EQ(S->elements(), Data.size());
  std::unique_ptr<SegmentCursor> Cur = S->cursor();
  std::vector<int64_t> Back;
  for (size_t I = 0; I != S->chunkCount(); ++I) {
    SegmentView V = Cur->chunk(I);
    Back.insert(Back.end(), V.Data, V.Data + V.Size);
  }
  EXPECT_EQ(Back, Data);
  // A truncated binary file is a typed parse error, not garbage data.
  std::ofstream(Bin, std::ios::binary | std::ios::trunc)
      .write("GRSPWB01junk", 12);
  EXPECT_THROW(openSegmentSource(Bin, SourceKind::Mmap),
               WorkloadParseError);
  std::remove(Bin.c_str());
}

TEST(SegmentSourceDiff, MaxElemsGuardsEveryKind) {
  std::vector<int64_t> Data(100, 7);
  std::string Text = writeTextWorkload("grassp_stream_cap.txt", Data);
  std::string Bin = ::testing::TempDir() + "grassp_stream_cap.bin";
  convertTextToBinary(Text, Bin);
  for (SourceKind K : {SourceKind::Memory, SourceKind::Mmap,
                       SourceKind::Chunked}) {
    const std::string &Path = K == SourceKind::Mmap ? Bin : Text;
    EXPECT_NO_THROW(openSegmentSource(Path, K, SourceOptions(), 100));
    EXPECT_ANY_THROW(openSegmentSource(Path, K, SourceOptions(), 99));
  }
  // Binary files have one reader: Chunked opens them as mmap.
  EXPECT_STREQ(openSegmentSource(Bin, SourceKind::Chunked)->kind(), "mmap");
  EXPECT_THROW(convertTextToBinary(Text, Bin, 50), WorkloadParseError);
  std::remove(Text.c_str());
  std::remove(Bin.c_str());
}

} // namespace
