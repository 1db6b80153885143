//===- perfbench/Workloads.h - The three benchmark workloads -------------===//
//
//   synth_cold  - ParallelDriver synthesizes all 27 Table-1 programs from
//                 a cold process, then chc::certify certifies the 21
//                 whose certification decides quickly.
//   fold_large  - nine plan shapes fold a 2^24-element input serially,
//                 on the thread pool, on warm dist workers over shm, and
//                 through a 256-chunk MergeTree taking updates.
//   serve_mix   - a forked ServeServer under one closed-loop client
//                 process: cold misses on one connection, cache hits
//                 and small runs on two more.
//
// Every workload sets up several times (each sample goes to "setup_s"),
// measures for the time budget, checks every answer through
// Report::check, and records raw samples for run.py. With tracing on it
// measures twice, untraced then traced, each for half the budget, and
// records "trace.untraced_unit_s" / "trace.traced_unit_s" (the cost of
// one unit of the workload's work in each half) for the overhead.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Report.h"
#include "Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Expected execution tier per program ("specialized", "native", ...).
  std::map<std::string, std::string> Tiers;
  /// Expected certification verdict per program ("certified", ...).
  std::map<std::string, std::string> Verdicts;
  /// Directory under which each setup gets its own, empty jit cache.
  std::string JitCacheRoot;
  /// This program's argv, to re-execute it for a cold set-up.
  std::vector<std::string> SelfArgs;
};

void runSynthCold(const RunOptions &O, Report &R);
/// The child side of a synth_cold set-up sample (--setup-only 1): sets
/// up, writes one byte to standard output, returns the exit status.
int setUpSynthColdOnly(const RunOptions &O);
void runFoldLarge(const RunOptions &O, Report &R);
void runServeMix(const RunOptions &O, Report &R);

/// Points the jit disk cache at a fresh directory \p Dir and drops the
/// in-memory kernel map, so the next compile is cold.
void useFreshJitCache(const std::string &Dir);

/// Runs the measured phase. \p Measure(Report &, double Budget) measures
/// for Budget seconds and returns the cost of one unit of work. An
/// untraced run measures once into \p R. A trace run measures untraced
/// into a scratch report (only its checks are kept), then traced into
/// \p R, each for half the budget.
template <class MeasureFn>
void measurePhases(const RunOptions &O, Report &R, MeasureFn Measure) {
  if (!O.Trace) {
    Measure(R, O.Seconds);
    return;
  }
  Report Untraced;
  double UnitU = Measure(Untraced, O.Seconds / 2);
  R.mergeChecks(Untraced);
  setTracing(true);
  double UnitT = Measure(R, O.Seconds / 2);
  setTracing(false);
  R.set("trace.untraced_unit_s", UnitU);
  R.set("trace.traced_unit_s", UnitT);
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
