//===- codegen/ExprCpp.cpp -------------------------------------------------=//

#include "codegen/ExprCpp.h"

#include <cassert>
#include <cstdint>
#include <sstream>

using namespace grassp::ir;

namespace grassp {
namespace codegen {

namespace {

void render(const ExprRef &E,
            const std::map<std::string, std::string> &VarMap,
            std::ostringstream &OS) {
  auto Infix = [&](const char *Sym) {
    OS << '(';
    render(E->operand(0), VarMap, OS);
    OS << ' ' << Sym << ' ';
    render(E->operand(1), VarMap, OS);
    OS << ')';
  };
  auto Call = [&](const char *Fn) {
    OS << Fn << '(';
    render(E->operand(0), VarMap, OS);
    OS << ", ";
    render(E->operand(1), VarMap, OS);
    OS << ')';
  };
  switch (E->getOp()) {
  case Op::ConstInt:
    // -9223372036854775808 is not a literal: its magnitude overflows.
    if (E->intValue() == INT64_MIN)
      OS << "INT64_MIN";
    else
      OS << "INT64_C(" << E->intValue() << ")";
    return;
  case Op::ConstBool:
    OS << (E->boolValue() ? "INT64_C(1)" : "INT64_C(0)");
    return;
  case Op::Var: {
    auto It = VarMap.find(E->varName());
    OS << (It == VarMap.end() ? E->varName() : It->second);
    return;
  }
  case Op::Add:
    return Call("g_add");
  case Op::Sub:
    return Call("g_sub");
  case Op::Mul:
    return Call("g_mul");
  case Op::Div:
    return Call("g_ediv");
  case Op::Mod:
    return Call("g_emod");
  case Op::Min:
    return Call("g_imin");
  case Op::Max:
    return Call("g_imax");
  case Op::Eq:
    return Infix("==");
  case Op::Ne:
    return Infix("!=");
  case Op::Lt:
    return Infix("<");
  case Op::Le:
    return Infix("<=");
  case Op::Gt:
    return Infix(">");
  case Op::Ge:
    return Infix(">=");
  case Op::And:
    return Infix("&&");
  case Op::Or:
    return Infix("||");
  case Op::Neg:
    OS << "g_neg(";
    render(E->operand(0), VarMap, OS);
    OS << ')';
    return;
  case Op::Not:
    OS << "(!";
    render(E->operand(0), VarMap, OS);
    OS << ')';
    return;
  case Op::Ite:
    OS << '(';
    render(E->operand(0), VarMap, OS);
    OS << " ? ";
    render(E->operand(1), VarMap, OS);
    OS << " : ";
    render(E->operand(2), VarMap, OS);
    OS << ')';
    return;
  case Op::BagInsertDistinct:
  case Op::BagUnion:
  case Op::BagSize:
    assert(false && "bag expressions are emitted by the set-based path");
    return;
  }
}

} // namespace

std::string exprToCpp(const ExprRef &E,
                      const std::map<std::string, std::string> &VarMap) {
  std::ostringstream OS;
  render(E, VarMap, OS);
  return OS.str();
}

const char *cppPreamble() {
  return R"(#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using i64 = int64_t;

// The IR's total int64 arithmetic (ir/Arith.h): + - * and negation
// wrap in two's complement, computed through uint64_t so overflow is
// defined; div is floor division and mod the Euclidean remainder, both
// 0 for a zero divisor, and INT64_MIN / -1 wraps to INT64_MIN.
static inline i64 g_add(i64 a, i64 b) { return (i64)((uint64_t)a + (uint64_t)b); }
static inline i64 g_sub(i64 a, i64 b) { return (i64)((uint64_t)a - (uint64_t)b); }
static inline i64 g_mul(i64 a, i64 b) { return (i64)((uint64_t)a * (uint64_t)b); }
static inline i64 g_neg(i64 a) { return (i64)(0 - (uint64_t)a); }
static inline i64 g_ediv(i64 a, i64 b) {
  if (b == 0) return 0;
  if (b == -1) return g_neg(a);
  i64 q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}
static inline i64 g_emod(i64 a, i64 b) {
  if (b == 0 || b == -1) return 0;
  i64 r = a % b;
  if (r < 0) r = g_add(r, b < 0 ? g_neg(b) : b);
  return r;
}
static inline i64 g_imin(i64 a, i64 b) { return a < b ? a : b; }
static inline i64 g_imax(i64 a, i64 b) { return a > b ? a : b; }
)";
}

} // namespace codegen
} // namespace grassp
