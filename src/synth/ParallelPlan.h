//===- synth/ParallelPlan.h - Synthesized parallelization plans ----------===//
//
// The output of GRASSP: a scenario-tagged description of how to run a
// SerialProgram in parallel over segments and merge the partial results.
// A plan is pure data (IR expressions and tables), so the same plan is
// executed concretely by the runtime, symbolically by the bounded
// verifier, encoded into CHCs by the certifier, and pretty-printed by the
// code generators.
//
// Scenarios (paper Sect. 3/6/7):
//  * NoPrefix           - fold every segment from d0; merge partial states
//                         (Fig. 6). Trivial or nontrivial merge (B1/B2).
//  * ConstPrefix        - additionally re-fold the first PrefixLen
//                         elements of the successor segment from each
//                         partial state before merging (Fig. 7, B3).
//  * CondPrefixRefold   - split each segment at the first element
//                         satisfying prefix_cond; merging re-folds the
//                         prefixes serially (Fig. 8, the paper's
//                         "split-based worst case").
//  * CondPrefixSummary  - like Refold, but prefixes are summarized online
//                         by the synthesized `sum` and applied in one step
//                         by `upd` (Fig. 9, B4).
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SYNTH_PARALLELPLAN_H
#define GRASSP_SYNTH_PARALLELPLAN_H

#include "ir/Expr.h"
#include "lang/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grassp {
namespace synth {

enum class Scenario {
  NoPrefix,
  ConstPrefix,
  CondPrefixRefold,
  CondPrefixSummary,
};

const char *scenarioName(Scenario S);

/// How an accumulator field combines across a boundary and composes
/// inside prefix summaries.
enum class AccFlavor { Plus, Max, Min, And, Or, SetLike };

const char *accFlavorName(AccFlavor F);

/// A binary merge of two partial states. Field i of the result is
/// Combine[i] evaluated over variables "a_<field>" and "b_<field>".
/// When Refold is set (bag-typed states), bag fields take the
/// duplicate-free union instead — the paper's "append the partial arrays
/// and reprocess" merge for "counting distinct elements".
struct MergeFn {
  bool Refold = false;
  std::vector<ir::ExprRef> Combine;

  /// True when this is a paper-"trivial" merge: every field combines by a
  /// single commutative operator application (group B1).
  bool isTrivial() const;
};

/// The synthesized conditional-prefix machinery (paper Sect. 6.3/7).
///
/// Control fields range over the finite valuation set CtrlValues; the
/// summary Delta tracks, for every possible start valuation v, the control
/// valuation reached at the end of the prefix plus one parametric
/// accumulator transform per accumulator field. CtrlStep/AccMode/AccArg
/// are expressions over the input element "in" specialized per start
/// valuation; they are exactly the synthesized `sum`, and `upd` is their
/// tabulated application (materialized as nested ite by
/// materializeUpdExprs()).
struct CondPrefixInfo {
  ir::ExprRef PrefixCond; // Bool expr over "in".

  std::vector<size_t> CtrlFields; // indices into the program state.
  std::vector<size_t> AccFields;
  std::vector<AccFlavor> AccFlavors; // parallel to AccFields.

  /// Reachable control valuations; CtrlValues[v][k] is the value of
  /// control field CtrlFields[k] (bools as 0/1).
  std::vector<std::vector<int64_t>> CtrlValues;

  /// CtrlStep[v][k]: value of control field k after one f step from
  /// valuation v, as an Int/Bool expression over "in".
  std::vector<std::vector<ir::ExprRef>> CtrlStep;

  /// AccMode[v][j]: Int expr over "in" in {0 = identity, 1 = assign,
  /// 2 = apply flavor op}; AccArg[v][j]: the transform argument.
  std::vector<std::vector<ir::ExprRef>> AccMode;
  std::vector<std::vector<ir::ExprRef>> AccArg;

  size_t numValuations() const { return CtrlValues.size(); }
};

/// A complete parallelization plan for one SerialProgram.
struct ParallelPlan {
  Scenario Kind = Scenario::NoPrefix;
  MergeFn Merge;          // NoPrefix / ConstPrefix.
  int PrefixLen = 0;      // ConstPrefix.
  CondPrefixInfo Cond;    // CondPrefix*.

  /// The paper's Table-1 group this plan corresponds to.
  std::string group() const;

  /// Human-readable multi-line description (used by examples/benches).
  std::string describe(const lang::SerialProgram &Prog) const;
};

/// Materializes the `upd` function of a summary plan as one nested-ite
/// expression per state field, over the field names and the table slots
/// of synth::SummaryLayout (synth/PlanEval.h). This reproduces the paper's
/// observation that synthesized sum/upd functions are nested ite terms;
/// the runtime compiles it, and ParallelPlan::describe() prints it.
std::vector<ir::ExprRef>
materializeUpdExprs(const lang::SerialProgram &Prog, const ParallelPlan &Plan);

} // namespace synth
} // namespace grassp

#endif // GRASSP_SYNTH_PARALLELPLAN_H
