//===- runtime/Kernels.h - Compiled execution kernels --------------------===//
//
// Fast concrete execution of serial programs and synthesized plans. Step
// functions, output functions, prefix predicates, and the summary tables
// are compiled to register bytecode (ir/Bytecode.h) once, then folded
// over millions of elements.
//
// Folding runs on a four-tier pipeline; CompiledProgram picks the
// fastest tier available for its program and every caller (serial run,
// parallel workers, merge repair) goes through the same selection, so
// measured speedups compare like against like:
//
//   Specialized - pattern-matched native kernels (runtime/Specialize.h);
//                 bag-typed programs use the native hash-set distinct
//                 kernel (runtime/DistinctSet.h) at this tier.
//   Native      - the optimized bytecode compiled to a real machine-code
//                 fold loop by the host compiler (jit/NativeKernel.h)
//                 and dlopen'd; present when a host compiler exists.
//   LoopVM      - the whole segment loop runs inside the bytecode VM
//                 (BytecodeFunction::foldLoop) on peephole-optimized
//                 bytecode with threaded dispatch.
//   PerElement  - one BytecodeFunction::run call per element; the
//                 portable baseline kept as a differential reference.
//
// All tiers are semantically identical by construction and certified by
// the differential oracle (testing/DiffOracle runs every available tier
// on every fuzzed workload).
//
// A conditional-prefix plan runs no hand-written plan code: its worker's
// prefix step, upd, boundary combine and the composition of two prefix
// summaries are built once by synth::PlanExecutor over variables — the
// same terms the induction, the CHC encoder and the corpus screen
// evaluate, and that codegen renders as the emitted C++'s sum_step, upd
// and combine_boundary — and compiled to optimized bytecode. Only the
// merge m of the other plan shapes comes from the plan's own
// expressions.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_KERNELS_H
#define GRASSP_RUNTIME_KERNELS_H

#include "ir/Bytecode.h"
#include "jit/NativeKernel.h"
#include "runtime/Specialize.h"
#include "runtime/Workload.h"
#include "synth/ParallelPlan.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace grassp {
namespace runtime {

class SegmentSource;

/// Execution tiers, fastest first.
enum class ExecTier : uint8_t { Specialized, Native, LoopVM, PerElement };

/// "specialized" / "native" / "loop-vm" / "per-element".
const char *execTierName(ExecTier T);

/// The serial program compiled to bytecode (scalar states) or routed to
/// the native distinct-elements kernel (bag states).
class CompiledProgram {
public:
  /// \p AllowSpecialize gates the specialized tier (the `--no-specialize`
  /// ablation); the hash-set distinct kernel for bag programs is not an
  /// ablatable tier and stays on regardless. \p AllowNative gates the
  /// jit-compiled tier (`--no-native`); it also quietly stays off when
  /// no host compiler is available.
  explicit CompiledProgram(const lang::SerialProgram &Prog,
                           bool AllowSpecialize = true,
                           bool AllowNative = true);

  bool usesBag() const { return Bag; }
  const lang::SerialProgram &program() const { return Prog; }

  /// Canonical hash of the optimized step bytecode — the same key the
  /// jit KernelCache uses, so it identifies the compiled plan across
  /// process boundaries (the dist runtime's fork handshake verifies a
  /// worker inherited the coordinator's plan by comparing this hash).
  uint64_t bytecodeHash() const;

  /// The tier all fold entry points run on.
  ExecTier tier() const { return Tier; }
  bool tierAvailable(ExecTier T) const;
  /// Kernel summary for the specialized tier ("" when not specialized).
  std::string specializationInfo() const;

  /// d0 as a flat int64 vector (Bools are 0/1). Bag programs return {}.
  std::vector<int64_t> initialState() const;

  /// In-place fold of f over \p Seg on the selected tier. Uses
  /// thread-local scratch only, so a shared CompiledProgram is
  /// const-callable from concurrent workers.
  void foldSegment(std::vector<int64_t> &State, SegmentView Seg) const;

  /// Same fold forced onto tier \p T (differential testing; \p T must be
  /// available).
  void foldSegmentTier(ExecTier T, std::vector<int64_t> &State,
                       SegmentView Seg) const;

  /// h. Uses thread-local scratch only; const-callable concurrently.
  int64_t output(const std::vector<int64_t> &State) const;

  /// Serial run over consecutive segments (bag programs included).
  int64_t runSerial(const std::vector<SegmentView> &Segs) const;

  /// Serial run forced onto tier \p T (must be available). For bag
  /// programs only the Specialized (hash-set) tier exists.
  int64_t runSerialTier(ExecTier T, const std::vector<SegmentView> &Segs) const;

  /// Serial run over a SegmentSource, one chunk resident at a time —
  /// the out-of-core path. Bit-identical to runSerial over the same
  /// element stream (a fold over [c0 ++ c1 ++ ...] is a fold).
  int64_t runSerialSource(const SegmentSource &Src) const;
  int64_t runSerialSourceTier(ExecTier T, const SegmentSource &Src) const;

private:
  const lang::SerialProgram &Prog;
  bool Bag = false;
  ExecTier Tier = ExecTier::PerElement;
  ir::BytecodeFunction StepFn;   // unoptimized; the per-element tier.
  ir::BytecodeFunction StepOpt;  // peephole-optimized; the loop-VM tier.
  ir::BytecodeFunction OutputFn; // inputs: fields.
  std::optional<SpecializedStep> Spec;
  std::shared_ptr<const jit::NativeKernel> Native; // the jit tier.
};

/// The summary of one segment, for every plan shape. CompiledPlan::combine
/// (⊕) joins the summaries of two adjacent segments and
/// CompiledPlan::finish turns a summary into the output, so the pool,
/// the dist coordinator, the MergeTree and the MapReduce cluster merge
/// every shape the same way and in any tree shape (runtime/MergeTree.h
/// has the soundness argument). A summary with Elems == 0 is the
/// identity of ⊕.
struct WorkerOutput {
  /// Segment length.
  uint64_t Elems = 0;

  /// No-prefix plans: the m-combination of the segments' states.
  /// Constant-prefix plans: the last non-empty segment's unrepaired
  /// state (a right neighbour would repair it). Cond-prefix plans: the
  /// fold of f from d0 over the elements from the boundary on.
  std::vector<int64_t> D;

  /// Constant-prefix plans: the first min(PrefixLen, Elems) elements of
  /// the first segment, which repair the state of its left neighbour.
  std::vector<int64_t> Head;
  /// Constant-prefix plans: the m-combination of the repaired states of
  /// every non-empty segment but the last; empty while the summary
  /// covers one non-empty segment.
  std::vector<int64_t> Merged;

  // Conditional-prefix plans: the first boundary element, and the
  // prefix before it. Summary plans keep its tables, flat in the slot
  // order of synth::SummaryLayout (control values stored as values);
  // re-folding plans keep its elements.
  bool Found = false;
  int64_t Boundary = 0;
  std::vector<int64_t> Tables;
  std::vector<int64_t> PrefixData;

  /// Bag kernel: the distinct elements, sorted (collected by the hash
  /// set of runtime/DistinctSet.h).
  std::vector<int64_t> Distinct;

  bool operator==(const WorkerOutput &) const = default;
};

/// A synthesized plan compiled for fast segment-parallel execution.
class CompiledPlan {
public:
  CompiledPlan(const lang::SerialProgram &Prog,
               const synth::ParallelPlan &Plan, bool AllowSpecialize = true,
               bool AllowNative = true);

  /// The summary of one segment (safe to call concurrently).
  WorkerOutput runWorker(SegmentView Seg) const;

  /// ⊕, in place: \p A becomes the summary of A's segment followed by
  /// \p B's.
  void combine(WorkerOutput &A, const WorkerOutput &B) const;

  /// The program's output over the segments a summary covers.
  int64_t finish(const WorkerOutput &S) const;

  /// Whether \p W has the sizes runWorker() gives a segment of \p Elems
  /// elements. combine() and finish() trust those sizes, so a summary
  /// from outside the process (a dist worker's Result) is checked here
  /// before it reaches them.
  bool fitsSegment(const WorkerOutput &W, uint64_t Elems) const;

  /// finish() of the left fold of combine() over \p Workers, one summary
  /// per segment in order.
  int64_t merge(const std::vector<WorkerOutput> &Workers) const;

  /// The same merge; \p Segs is only counted. Kept for
  /// perfbench/ServeMix.cpp, its only caller.
  int64_t merge(const std::vector<WorkerOutput> &Workers,
                const std::vector<SegmentView> &Segs) const;

  const synth::ParallelPlan &plan() const { return Plan; }
  const CompiledProgram &compiled() const { return Compiled; }

private:
  WorkerOutput runScanWorker(SegmentView Seg) const;
  WorkerOutput runCondWorker(SegmentView Seg) const;
  /// A = m(A, B) on scalar partial states.
  void mergeStates(std::vector<int64_t> &A,
                   const std::vector<int64_t> &B) const;
  /// Carries the serial state \p C across the segment \p W summarizes:
  /// upd (or the re-folded prefix), then the boundary combine.
  void merge1(std::vector<int64_t> &C, const WorkerOutput &W) const;

  const synth::ParallelPlan &Plan;
  CompiledProgram Compiled;

  // Scalar scan plans: the merge m, inputs a_* then b_*.
  ir::BytecodeFunction MergeFn;

  // Conditional-prefix plans, compiled from synth::PlanExecutor. Tables
  // are in synth::SummaryLayout order; a re-folding plan has none.
  ir::BytecodeFunction PrefixFn;   // tables, in -> tables, prefix_cond(in)
  ir::BytecodeFunction UpdFn;      // state, tables -> upd(state, tables)
  ir::BytecodeFunction BoundaryFn; // state, worker D, boundary -> state
  ir::BytecodeFunction ComposeFn;  // tables a_*, b_* -> tables of a ++ b
  std::vector<int64_t> InitTables; // the tables of the empty prefix
};

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_KERNELS_H
