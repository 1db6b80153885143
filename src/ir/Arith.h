//===- ir/Arith.h - Total int64 arithmetic shared by every evaluator -----===//
//
// The concrete semantics of the IR's integer operators, in one place:
// the reference interpreter, the bytecode VM, the specialized kernels
// and the constant folder all call these, and the native kernels
// (compiled with -fwrapv) reproduce them bit for bit.
//
//  * add, sub, mul and neg wrap in two's complement; they compute
//    through uint64_t, so overflow is defined rather than UB.
//  * div is floor division and mod the Euclidean remainder in
//    [0, |b|); both are total: x / 0 = x mod 0 = 0, and the one
//    quotient that does not fit, INT64_MIN / -1, wraps to INT64_MIN.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_IR_ARITH_H
#define GRASSP_IR_ARITH_H

#include <cstdint>

namespace grassp {
namespace ir {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

inline int64_t floorDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (B == -1) // A / -1 traps on INT64_MIN.
    return wrapNeg(A);
  int64_t Q = A / B;
  if (A % B != 0 && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

inline int64_t euclidMod(int64_t A, int64_t B) {
  if (B == 0 || B == -1) // A % -1 traps on INT64_MIN.
    return 0;
  int64_t R = A % B;
  if (R < 0) // |B| = 2^63 wraps to INT64_MIN; the sum still lands in range.
    R = wrapAdd(R, B < 0 ? wrapNeg(B) : B);
  return R;
}

} // namespace ir
} // namespace grassp

#endif // GRASSP_IR_ARITH_H
