//===- codegen/CppCodegen.h - Standalone C++ translations ----------------===//
//
// Emits the paper's "C++ translations of the GRASSP solutions"
// (Sect. 9.4): a self-contained multithreaded C++ source file that
// generates a workload, runs the serial specification and the
// synthesized parallel plan, prints both results
// ("serial=<v> parallel=<v> OK|MISMATCH"), and exits nonzero on a
// mismatch. Run with no arguments the binary generates its own workload
// (SplitMix64 + rejection sampling, the runtime's distribution); given
// argv[1] it instead reads one decimal element per line from that file —
// the hook the differential-oracle harness (src/testing) uses to replay
// identical workloads across execution paths. Integration tests compile
// and run the emitted code with the host compiler.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_CODEGEN_CPPCODEGEN_H
#define GRASSP_CODEGEN_CPPCODEGEN_H

#include "lang/Program.h"
#include "synth/ParallelPlan.h"

#include <string>

namespace grassp {
namespace codegen {

struct CppEmitOptions {
  unsigned NumThreads = 8;
  size_t NumElements = 1 << 20;
  uint64_t Seed = 42;
};

/// Emits the standalone translation. Supports all scenarios except
/// CondPrefixRefold (an internal ablation comparator); returns "" for
/// unsupported plans. A CondPrefixSummary (B4) translation holds no
/// hand-written plan semantics: its sum_step, upd and combine_boundary
/// render the synth::PlanExecutor terms that runtime::CompiledPlan
/// compiles and the induction proves, over one slot array in
/// synth::SummaryLayout order.
std::string emitStandaloneCpp(const lang::SerialProgram &Prog,
                              const synth::ParallelPlan &Plan,
                              const CppEmitOptions &Opts = CppEmitOptions());

/// Emits a Hadoop-streaming style translation: one binary with --map
/// (stdin shard -> partial state line) and --reduce (partial state lines
/// -> final output) modes. NoPrefix scalar plans only; "" otherwise.
std::string emitMapReduceCpp(const lang::SerialProgram &Prog,
                             const synth::ParallelPlan &Plan);

} // namespace codegen
} // namespace grassp

#endif // GRASSP_CODEGEN_CPPCODEGEN_H
