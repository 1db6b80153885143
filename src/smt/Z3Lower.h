//===- smt/Z3Lower.h - IR terms as Z3 terms (internal) --------------------===//
//
// The one lowering of IR terms to Z3, shared by the SMT solver and the
// CHC certifier: Int is the unbounded integers, and Div and Mod are
// SMT-LIB's. Internal to those two Z3 users: it includes z3++.h, which
// no public header may do.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SMT_Z3LOWER_H
#define GRASSP_SMT_Z3LOWER_H

#include "ir/Expr.h"

#include <unordered_map>
#include <vector>

#include <z3++.h>

namespace grassp {
namespace smt {

/// Lowers IR terms to Z3 terms of one context, memoized per node.
class Z3Lowerer {
public:
  explicit Z3Lowerer(z3::context &Ctx) : Ctx(Ctx) {}

  /// Lowers \p E and keeps it, and so its whole DAG, alive until
  /// clear(): the memo's keys are raw node addresses, so a freed and
  /// reallocated node must never alias a memoized one.
  z3::expr lower(const ir::ExprRef &E);

  /// Drops the memo and the kept terms together.
  void clear();

private:
  z3::expr lowerNode(const ir::ExprRef &E);
  z3::expr lowerUncached(const ir::ExprRef &E);

  z3::context &Ctx;
  std::unordered_map<const ir::Expr *, z3::expr> Cache;
  std::vector<ir::ExprRef> Retained;
};

} // namespace smt
} // namespace grassp

#endif // GRASSP_SMT_Z3LOWER_H
