//===- testing/DiffOracle.h - Differential oracle over execution paths ---===//
//
// One plan, up to ten executions of the same workload:
//
//  1. the tree-walking reference interpreter (lang::runSerial) — the
//     ground truth, a flat fold of f with no segmentation at all;
//  2. the per-element bytecode VM folded over the segments
//     (CompiledProgram on the PerElement tier, unoptimized bytecode);
//  3. the loop-resident VM (LoopVM tier: peephole-optimized bytecode,
//     the whole segment loop threaded inside the VM);
//  4. the jit-compiled native kernel (Native tier: the optimized
//     bytecode lowered to C++, built by the host compiler and
//     dlopen'd; absent without a host compiler);
//  5. the pattern-specialized native kernels (Specialized tier; present
//     only when the program's step shape specializes — for bag programs
//     this is the hash-set distinct kernel and the only tier);
//  6. the compiled plan run segment-parallel on a real ThreadPool
//     (runtime::runParallel), and the same segment summaries joined by
//     CompiledPlan::combine (⊕) over a random binary tree, seeded by
//     the check count ("summary-tree");
//  7. the compiled plan run over an in-memory VectorSource (the
//     out-of-core entry point, runtime::runParallel(Plan, Source)) with
//     chunk boundaries deliberately misaligned with the segment shape;
//  8. the MergeTree replay: the same chunks appended one at a time to
//     the incremental-recompute tree, querying the root (skipped, with
//     path 7, on empty workloads — sources reject them by contract);
//  9. the emitted standalone C++ translation, compiled on the fly with
//     the host compiler and fed the identical workload through its
//     file-input hook (skipped gracefully when no compiler is present
//     or the plan has no translation; a compiler that *fails* on the
//     translation, or an emitted binary that dies or won't run, is
//     reported as a divergence, never a silent no-verdict);
// 10. (opt-in, UseDist) the real multi-process distributed runtime
//     (dist::DistCoordinator): forked worker processes over Unix
//     sockets, one shard per segment — a genuinely independent
//     process-isolated path, and the one chaos mode kills real workers
//     under while demanding the same bit-identical answer.
//
// Running every tier on every fuzzed workload is what lets the runtime
// trust neither the peephole optimizer nor the specialized kernels: a
// miscompiled lane diverges from the interpreter here.
//
// Any disagreement is a divergence; minimize() shrinks a diverging input
// with a ddmin-style pass (drop segments, halve segments, drop single
// elements), re-checking the full oracle after every step so the
// reproducer it returns still diverges.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_TESTING_DIFFORACLE_H
#define GRASSP_TESTING_DIFFORACLE_H

#include "dist/Coordinator.h"
#include "lang/Program.h"
#include "runtime/Kernels.h"
#include "runtime/Runner.h"
#include "support/ThreadPool.h"
#include "synth/ParallelPlan.h"

#include <memory>
#include <string>
#include <vector>

namespace grassp {
namespace testing {

/// A workload already carved into segments; empty segments are legal and
/// deliberately interesting.
using SegmentedInput = std::vector<std::vector<int64_t>>;

struct OracleConfig {
  /// Attempt the emitted-C++ path. Quietly disabled when the host has no
  /// g++ or the plan has no standalone translation.
  bool UseEmitted = true;
  /// Worker threads for the ThreadPool path and the emitted binary.
  unsigned Threads = 4;
  /// Fault-tolerance policy for the plan+pool path. Chaos mode points
  /// Policy.Faults at a seeded injector: the oracle then checks that
  /// the fault-tolerant run is still bit-identical to the other paths.
  runtime::RunPolicy Policy;
  /// Add the real multi-process runtime as an independent path. The
  /// coordinator (and its forked workers) persist across checks; with
  /// Dist.Faults armed at the dist.* sites, workers genuinely die
  /// mid-fold and the oracle demands bit-identical recovery.
  bool UseDist = false;
  dist::DistConfig Dist;
};

struct OracleVerdict {
  bool Diverged = false;
  /// Ground-truth output (the reference interpreter).
  int64_t Expected = 0;
  /// On divergence: every path's value, e.g.
  /// "interp=3 vm=3 loop-vm=3 fused=4 plan+pool=3".
  std::string Detail;
};

class DiffOracle {
public:
  /// \p Prog must outlive the oracle (benchmarks have static storage);
  /// \p Plan is copied.
  DiffOracle(const lang::SerialProgram &Prog, const synth::ParallelPlan &Plan,
             const OracleConfig &Cfg = OracleConfig());
  ~DiffOracle();

  DiffOracle(const DiffOracle &) = delete;
  DiffOracle &operator=(const DiffOracle &) = delete;

  /// Paths compared per check: the interpreter, every execution tier the
  /// program supports (including the jit-compiled native tier when a
  /// host compiler exists), the plan+pool run, the random summary
  /// tree, the source-backed parallel run and the MergeTree replay
  /// (skipped on empty workloads), and (when ready) the emitted binary.
  /// 8-10 for typical scalar programs, 6 or 7 for bag programs (which
  /// have only the hash-set tier).
  unsigned numPaths() const {
    // interpreter + plan+pool + summary-tree + source+pool + merge-tree.
    unsigned N = 5;
    if (Compiled.tierAvailable(runtime::ExecTier::PerElement))
      ++N;
    if (Compiled.tierAvailable(runtime::ExecTier::LoopVM))
      ++N;
    if (Compiled.tierAvailable(runtime::ExecTier::Native))
      ++N;
    if (Compiled.tierAvailable(runtime::ExecTier::Specialized))
      ++N;
    return N + (EmittedReady ? 1 : 0) + (DistCoord ? 1 : 0);
  }
  bool emittedActive() const { return EmittedReady; }
  bool distActive() const { return DistCoord != nullptr; }
  /// True when the translation existed but the host compiler failed on
  /// it; every check() then reports the compile detail as a divergence.
  bool emittedBroken() const { return EmittedBroken; }

  /// Runs all paths on \p Segs and compares.
  OracleVerdict check(const SegmentedInput &Segs);

  /// Shrinks a diverging input, spending at most \p MaxChecks oracle
  /// re-checks; the result is guaranteed to still diverge.
  SegmentedInput minimize(SegmentedInput Segs, unsigned MaxChecks = 200);

  /// Total oracle checks run (fuzzing + minimization).
  unsigned long checksRun() const { return Checks; }

  /// Recovery activity summed over every check: of the plan+pool and
  /// source+pool runs (zero unless the config armed a fault injector),
  /// and of the distributed runs, whose every counter is a REAL event
  /// (WorkersKilled saw WIFSIGNALED, CorruptFrames were checksum rejects
  /// of actual wire bytes).
  const runtime::RecoveryCounters &faultStats() const { return Faults; }
  const runtime::RecoveryCounters &distStats() const { return DistSt; }

  /// "file.cpp:3 segments [1 2 | | 7]" — reproducer pretty-printer.
  static std::string formatInput(const SegmentedInput &Segs);

  /// True when the host compiler ($CXX, falling back to g++) works on
  /// this host (cached after the first probe).
  static bool hostCompilerAvailable();

private:
  bool runEmitted(const std::vector<int64_t> &Flat, int64_t *SerialOut,
                  int64_t *ParallelOut, std::string *Error);
  /// Removes the emitted-path scratch dir (idempotent). Called by the
  /// destructor AND on the constructor's failure paths — a throwing or
  /// compile-failing constructor must not leak the dir.
  void removeScratch();

  const lang::SerialProgram &Prog;
  synth::ParallelPlan Plan; // owned: CompiledPlan holds a reference.
  runtime::CompiledProgram Compiled;
  runtime::CompiledPlan CompiledPlanImpl;
  // Declared (and so constructed) BEFORE Pool: the coordinator prewarms
  // its worker pool at construction, putting the bulk of its fork()s
  // before any ThreadPool thread exists. Chaos-mode respawns still fork
  // with Pool threads live — POSIX-undefined but safe on the
  // glibc/Linux target (see the fork-safety note in dist/Coordinator.h).
  std::unique_ptr<dist::DistCoordinator> DistCoord;
  ThreadPool Pool;
  runtime::RunPolicy Policy;
  unsigned long Checks = 0;
  runtime::RecoveryCounters Faults;
  runtime::RecoveryCounters DistSt;

  // Emitted-path state: a temp dir holding the compiled binary plus the
  // per-check workload/output files. Broken means a compiler exists but
  // failed on the translation (reported per check, with the cc.log
  // detail in EmittedError).
  bool EmittedReady = false;
  bool EmittedBroken = false;
  std::string EmittedError;
  std::string TmpDir;
  std::string BinPath;
};

} // namespace testing
} // namespace grassp

#endif // GRASSP_TESTING_DIFFORACLE_H
