//===- bench/bench_stream.cpp - Incremental-recompute (MergeTree) bench ---==//
//
// Measures the online-aggregation payoff of certified merges (ROADMAP
// item 3): a workload carved into chunks is appended into a MergeTree
// (sustained elements/sec), then random single-chunk edits are applied
// and each edit is timed two ways — the tree's replace+query (re-fold
// one chunk, re-combine the O(log n) root path) against the
// from-scratch refold of the whole stream on the program's best serial
// tier. Every update is differentially verified: the tree's answer must
// be bit-identical to the refold's, so a speedup row is only reported
// for updates whose answers agree.
//
//   bench_stream [--json] [--n ELEMS] [--chunks C] [--updates U]
//                [--seed S] [--no-specialize] [--no-native]
//
// --json prints the machine-readable report consumed by
// scripts/bench_baseline.sh (BENCH_stream.json). The headline acceptance
// number is speedup_update_vs_refold at the default 256 chunks.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "runtime/Kernels.h"
#include "runtime/MergeTree.h"
#include "runtime/Runner.h"
#include "runtime/Workload.h"
#include "support/Random.h"
#include "support/Timing.h"
#include "synth/Grassp.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace grassp;
using namespace grassp::runtime;

namespace {

struct Options {
  bool Json = false;
  bool Specialize = true;
  bool Native = true;
  size_t N = 1u << 20;
  size_t Chunks = 256;
  unsigned Updates = 48;
  uint64_t Seed = 7;
};

volatile int64_t Sink;

/// Same threshold as bench_kernels: a "refold" under this per-element
/// cost is not an O(N) pass — the host compiler collapsed the fold to a
/// closed form (count's specialized lane becomes Acc += N), so a tree
/// speedup against it is meaningless and reported as such.
constexpr double ClosedFormNsPerElem = 0.05;

struct Row {
  std::string Name;
  double AppendElemsPerSec = 0.0;
  double UpdateUs = 0.0; // median per-update (replace + query)
  double RefoldUs = 0.0; // median from-scratch refold on the same edit
  double Speedup = 0.0;
  bool ClosedForm = false; // refold is O(1); speedup not meaningful
  unsigned Verified = 0;   // updates where tree == refold
  unsigned Mismatched = 0; // must stay 0
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

bool measure(const lang::SerialProgram &P, const Options &Opts, Row *Out) {
  synth::SynthesisResult R = synth::synthesize(P);
  if (!R.Success)
    return false;
  CompiledProgram CP(P, Opts.Specialize, Opts.Native);
  CompiledPlan Plan(P, R.Plan, Opts.Specialize, Opts.Native);

  std::vector<int64_t> Data = generateWorkload(P, Opts.N, Opts.Seed);
  size_t Chunks = Opts.Chunks < Data.size() ? Opts.Chunks : Data.size();
  if (Chunks == 0)
    return false;
  std::vector<SegmentView> Views = partition(Data, (unsigned)Chunks);

  Out->Name = P.Name;

  // Sustained streaming build: append every chunk, timed end to end.
  MergeTree Tree(Plan);
  {
    Stopwatch T;
    for (const SegmentView &V : Views)
      Tree.append(V);
    Sink = Tree.query();
    double S = T.seconds();
    Out->AppendElemsPerSec =
        S > 0.0 ? static_cast<double>(Data.size()) / S : 0.0;
  }

  // Random single-chunk edits: tree update vs from-scratch refold, both
  // on the identical post-edit stream, answers compared every time.
  grassp::Rng Rng(Opts.Seed * 77 + 13);
  std::vector<double> TreeUs, RefoldUs;
  std::vector<SegmentView> Whole = {{Data.data(), Data.size()}};
  for (unsigned U = 0; U != Opts.Updates; ++U) {
    size_t Chunk = Rng.next() % Views.size();
    // Mutate one element in place so chunk geometry is stable and the
    // refold sees the same bytes through Whole.
    size_t Off = static_cast<size_t>(Views[Chunk].Data - Data.data()) +
                 Rng.next() % Views[Chunk].Size;
    Data[Off] = static_cast<int64_t>(Rng.next() % 2001) - 1000;

    Stopwatch TT;
    Tree.replace(Chunk, Views[Chunk]);
    int64_t TreeVal = Tree.query();
    TreeUs.push_back(TT.seconds() * 1e6);

    Stopwatch RT;
    int64_t RefoldVal = CP.runSerial(Whole);
    RefoldUs.push_back(RT.seconds() * 1e6);

    if (TreeVal == RefoldVal)
      ++Out->Verified;
    else
      ++Out->Mismatched;
    Sink = TreeVal;
  }
  Out->UpdateUs = median(TreeUs);
  Out->RefoldUs = median(RefoldUs);
  Out->ClosedForm = Data.size() != 0 &&
                    Out->RefoldUs * 1e3 / static_cast<double>(Data.size()) <
                        ClosedFormNsPerElem;
  Out->Speedup = Out->UpdateUs > 0.0 ? Out->RefoldUs / Out->UpdateUs : 0.0;
  return true;
}

int run(const Options &Opts) {
  std::vector<Row> Rows;
  for (const lang::SerialProgram &P : lang::allBenchmarks()) {
    Row R;
    if (measure(P, Opts, &R))
      Rows.push_back(std::move(R));
  }

  unsigned Mismatches = 0;
  for (const Row &R : Rows)
    Mismatches += R.Mismatched;

  if (Opts.Json) {
    std::printf("{\n");
    std::printf("  \"n\": %zu,\n  \"chunks\": %zu,\n  \"updates\": %u,\n"
                "  \"seed\": %" PRIu64 ",\n",
                Opts.N, Opts.Chunks, Opts.Updates, Opts.Seed);
    std::printf("  \"benchmarks\": [\n");
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::printf("    {\"name\": \"%s\", "
                  "\"append_elems_per_sec\": %.0f, "
                  "\"update_us\": %.2f, \"refold_us\": %.2f, ",
                  R.Name.c_str(), R.AppendElemsPerSec, R.UpdateUs,
                  R.RefoldUs);
      if (R.ClosedForm)
        std::printf("\"refold\": \"closed-form\", ");
      else
        std::printf("\"speedup_update_vs_refold\": %.1f, ", R.Speedup);
      std::printf("\"verified\": %u, \"mismatched\": %u}%s\n", R.Verified,
                  R.Mismatched, I + 1 == Rows.size() ? "" : ",");
    }
    std::printf("  ],\n  \"total_mismatches\": %u\n}\n", Mismatches);
    return Mismatches == 0 ? 0 : 1;
  }

  std::printf("incremental recompute, N=%zu chunks=%zu updates=%u "
              "(per-update medians)\n",
              Opts.N, Opts.Chunks, Opts.Updates);
  std::printf("%-22s %14s %12s %12s %10s %9s\n", "benchmark",
              "append elem/s", "update (us)", "refold (us)", "speedup",
              "verified");
  for (const Row &R : Rows) {
    char Sp[32];
    if (R.ClosedForm)
      std::snprintf(Sp, sizeof(Sp), "closed-form");
    else
      std::snprintf(Sp, sizeof(Sp), "%.1fx", R.Speedup);
    std::printf("%-22s %14.0f %12.2f %12.2f %10s %6u/%u\n",
                R.Name.c_str(), R.AppendElemsPerSec, R.UpdateUs, R.RefoldUs,
                Sp, R.Verified, R.Verified + R.Mismatched);
  }
  if (Mismatches != 0) {
    std::printf("\nFAIL: %u update(s) diverged from the full refold\n",
                Mismatches);
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--json") {
      Opts.Json = true;
    } else if (A == "--no-specialize") {
      Opts.Specialize = false;
    } else if (A == "--no-native") {
      Opts.Native = false;
    } else if (A == "--n" && I + 1 < argc) {
      Opts.N = std::strtoull(argv[++I], nullptr, 10);
    } else if (A == "--chunks" && I + 1 < argc) {
      Opts.Chunks = std::strtoull(argv[++I], nullptr, 10);
    } else if (A == "--updates" && I + 1 < argc) {
      Opts.Updates =
          static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    } else if (A == "--seed" && I + 1 < argc) {
      Opts.Seed = std::strtoull(argv[++I], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--n ELEMS] [--chunks C] "
                   "[--updates U] [--seed S] [--no-specialize] "
                   "[--no-native]\n",
                   argv[0]);
      return 2;
    }
  }
  return run(Opts);
}
