//===- codegen/ExprCpp.h - Rendering IR expressions as C++ ----------------==//

#ifndef GRASSP_CODEGEN_EXPRCPP_H
#define GRASSP_CODEGEN_EXPRCPP_H

#include "ir/Expr.h"

#include <map>
#include <string>

namespace grassp {
namespace codegen {

/// Renders \p E as a C++ expression over int64_t values (Bools are 0/1)
/// with the concrete semantics of ir/Arith.h: every arithmetic operator
/// is a call to a preamble helper, so no rendered term has undefined
/// behaviour.
/// \p VarMap maps IR variable names to C++ lvalue expressions; unmapped
/// variables render as their own name.
std::string exprToCpp(const ir::ExprRef &E,
                      const std::map<std::string, std::string> &VarMap);

/// The preamble emitted once per generated file: the type alias and the
/// wrapping + - * neg, floor div, Euclidean mod and min/max helpers the
/// rendered expressions rely on.
const char *cppPreamble();

} // namespace codegen
} // namespace grassp

#endif // GRASSP_CODEGEN_EXPRCPP_H
