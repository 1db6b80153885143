//===- bench/bench_synthesis.cpp - Table 1 (left): synthesis performance --==//
//
// Regenerates the "GRASSP performance (synt time)" column of Table 1 and
// the gradual-stage escalation of Fig. 10: for every benchmark, the
// wall-clock synthesis time, the stage that solved it (group), candidate
// counts, and SMT query counts.
//
// Flags:
//   --jobs N    run N synthesis pipelines concurrently on the ThreadPool
//               (default 1; 0 = hardware concurrency). Results are
//               reported in benchmark order regardless of N, so the
//               table's plan/stage/check columns are byte-identical to
//               the serial run.
//   --stable    print "-" for the (nondeterministic) time columns so the
//               whole output can be diffed across runs and job counts;
//               the budget-dependent SMT fallback count is left out.
//   --json      print a machine-readable report instead of the table:
//               per-program cold synthesis time, SMT checks, Unknown
//               verdicts, SMT fallbacks and proof route (consumed by
//               scripts/bench_baseline.sh to produce BENCH_synth.json).
//
// The proof column says how the winner was accepted: "induction", or
// "bounded:<why>" (the induction failed its base or step case, or was
// not tried on a prefix plan or bag state; see synth::ProofRoute).
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "support/Timing.h"
#include "synth/ParallelDriver.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace grassp;

namespace {

const char *proofOf(const synth::SynthesisResult &R) {
  return R.Proof ? synth::proofRouteName(*R.Proof) : "-";
}

/// Prints the --json report; returns the number of programs solved.
unsigned printJson(const std::vector<synth::TaskResult> &Results,
                   unsigned Jobs, double WallSeconds) {
  unsigned Solved = 0, Checks = 0, Unknowns = 0, Fallbacks = 0;
  double Total = 0;
  std::printf("{\n  \"jobs\": %u,\n  \"programs\": [\n", Jobs);
  for (size_t I = 0; I != Results.size(); ++I) {
    const synth::TaskResult &T = Results[I];
    const synth::SynthesisResult &R = T.Result;
    std::printf("    {\"name\": \"%s\", \"status\": \"%s\", "
                "\"group\": \"%s\", \"cold_s\": %.6f,\n"
                "     \"candidates\": %u, \"smt_checks\": %u, "
                "\"unknowns\": %u, \"fallbacks\": %u, \"proof\": \"%s\"}%s\n",
                T.Name.c_str(), synth::taskStatusName(T.Status),
                R.Group.c_str(), R.SynthSeconds, R.CandidatesTried,
                R.SmtChecks, R.UnknownVerdicts, R.SmtFallbacks, proofOf(R),
                I + 1 == Results.size() ? "" : ",");
    Solved += R.Success ? 1 : 0;
    Total += R.SynthSeconds;
    Checks += R.SmtChecks;
    Unknowns += R.UnknownVerdicts;
    Fallbacks += R.SmtFallbacks;
  }
  std::printf("  ],\n  \"solved\": %u,\n  \"total_s\": %.6f,\n"
              "  \"wall_s\": %.6f,\n  \"smt_checks\": %u,\n"
              "  \"unknowns\": %u,\n  \"fallbacks\": %u\n}\n",
              Solved, Total, WallSeconds, Checks, Unknowns, Fallbacks);
  return Solved;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = 1;
  bool Stable = false;
  bool Json = false;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--jobs") == 0 && I + 1 < argc) {
      char *End = nullptr;
      unsigned long V = std::strtoul(argv[++I], &End, 10);
      if (End == argv[I] || *End != '\0') {
        std::fprintf(stderr, "error: --jobs expects a number, got '%s'\n",
                     argv[I]);
        return 2;
      }
      Jobs = static_cast<unsigned>(V);
    } else if (std::strcmp(argv[I], "--stable") == 0) {
      Stable = true;
    } else if (std::strcmp(argv[I], "--json") == 0) {
      Json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--jobs N] [--stable | --json]\n",
                   argv[0]);
      return 2;
    }
  }

  synth::DriverOptions Opts;
  Opts.Jobs = Jobs;
  synth::ParallelDriver Driver(Opts);
  Stopwatch Wall;
  std::vector<synth::TaskResult> Results = Driver.runAll();
  if (Json)
    return printJson(Results, Jobs, Wall.seconds()) == Results.size() ? 0 : 1;

  std::printf("Table 1 (synthesis): GRASSP performance\n");
  std::printf("%-22s %-6s %-10s %-6s %-5s %-17s %s\n", "benchmark", "group",
              "synt time", "cands", "smt", "proof", "winning stage");
  std::printf("%s\n", std::string(106, '-').c_str());

  double Total = 0;
  unsigned Solved = 0, Fallbacks = 0;
  for (const synth::TaskResult &T : Results) {
    const synth::SynthesisResult &R = T.Result;
    const char *Stage = "-";
    for (const std::string &S : R.StageLog)
      if (S.find("solved") != std::string::npos)
        Stage = S.c_str();
    const char *Group = R.Success ? R.Group.c_str()
                       : T.Status == synth::TaskStatus::Unknown ? "UNK"
                                                                : "FAIL";
    std::printf("%-22s %-6s %-10s %-6u %-5u %-17s %s\n", T.Name.c_str(),
                Group, Stable ? "-" : formatSeconds(R.SynthSeconds).c_str(),
                R.CandidatesTried, R.SmtChecks, proofOf(R), Stage);
    Total += R.SynthSeconds;
    Solved += R.Success ? 1 : 0;
    Fallbacks += R.SmtFallbacks;
  }
  std::printf("%s\n", std::string(106, '-').c_str());
  std::printf("solved %u/27, total synthesis time %s\n", Solved,
              Stable ? "-" : formatSeconds(Total).c_str());
  if (!Stable)
    std::printf("smt fallbacks (incremental Unknown re-checked on a fresh "
                "solver): %u\n",
                Fallbacks);
  std::printf("\n(paper: all 27 synthesized, typical times 1-12s; absolute "
              "times differ by host,\n the per-stage escalation and "
              "success pattern are the reproduced shape)\n");
  return Solved == 27 ? 0 : 1;
}
