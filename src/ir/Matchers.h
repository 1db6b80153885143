//===- ir/Matchers.h - Structural analyses over step expressions ---------===//
//
// Step-shape analysis, used by the conditional-prefix (stage 3)
// synthesis: which variables occur at *value* positions of a
// field-update expression vs. only inside `ite` conditions. A state
// field has finite control range when its update only ever assigns
// constants or other finite-control fields (the input may steer the
// choice but never flows into the value).
//
// How accumulators transform and compose inside a prefix summary is not
// modelled here: it is synth/CondPrefix.cpp's accumulator flavors, and
// synth::PlanExecutor is their one semantics.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_IR_MATCHERS_H
#define GRASSP_IR_MATCHERS_H

#include "ir/Expr.h"

#include <set>
#include <string>

namespace grassp {
namespace ir {

/// Result of analyzing the shape of a field-update expression.
struct StepShape {
  /// Variables occurring at value positions (outside ite conditions).
  std::set<std::string> ValueVars;
  /// Variables occurring inside ite conditions or comparisons.
  std::set<std::string> CondVars;
  /// True when a value position contains arithmetic (add/sub/mul/div/
  /// neg/min/max) — such a field can take unboundedly many values.
  bool ValueHasArith = false;
};

/// Computes the \c StepShape of \p E.
StepShape analyzeStepShape(const ExprRef &E);

} // namespace ir
} // namespace grassp

#endif // GRASSP_IR_MATCHERS_H
