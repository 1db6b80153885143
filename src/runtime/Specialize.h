//===- runtime/Specialize.h - Pattern-specialized native fold kernels ----===//
//
// The fastest execution tier: a structural matcher over the serial step
// expressions that recognizes the paper's recurring shapes and lowers
// them to hand-fused native loops the compiler can autovectorize.
//
// A step function specializes when every state field is covered by
//
//  * an independent accumulator lane
//        f' = ite(Guard(in), Op(f, Term(in)), f)
//    with Op in {+, min, max, or}, Term in {in, constant, |in|}, and
//    Guard in {true, in <cmp> c, in mod m == k}; or
//
//  * a coupled two-field kernel: counted extremum (running max/min plus
//    its occurrence count, as in count_max/count_min) or second extremum
//    (top-two running max/min, as in second_max).
//
// Lanes read only their own field(s) and the input element, so each runs
// as its own tight pass over the segment; the per-lane loops carry no
// dispatch and no guard branch (a failed guard folds the operator's
// identity), so random guards cost no mispredicts.
//
// Specialized kernels are never trusted: they register as an extra path
// in testing/DiffOracle and must stay bit-identical to the bytecode VM
// and the reference interpreter on every fuzzed workload.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_SPECIALIZE_H
#define GRASSP_RUNTIME_SPECIALIZE_H

#include "lang/Program.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace grassp {
namespace runtime {

/// A fully matched, directly executable specialization of a step
/// function. Build with specializeStep(); execute with fold().
class SpecializedStep {
public:
  enum class GuardKind : uint8_t { True, Eq, Ne, Lt, Le, Gt, Ge, ModEq };
  enum class TermKind : uint8_t { In, Const, AbsIn };
  enum class AccOpKind : uint8_t { Add, Min, Max, Or };

  /// One independent accumulator:
  ///   State[Field] = Guard ? Op(State[Field], Term) : State[Field].
  struct Lane {
    uint16_t Field = 0;
    GuardKind G = GuardKind::True;
    int64_t GC = 0; // comparison constant / ModEq residue k.
    uint64_t GM = 0; // ModEq modulus |m| (0 never occurs post-match).
    TermKind T = TermKind::In;
    int64_t TC = 0; // Term constant.
    AccOpKind O = AccOpKind::Add;
  };

  /// Running extremum plus its occurrence count (count_max/count_min).
  struct Counted {
    uint16_t Ext = 0;
    uint16_t Cnt = 0;
    bool IsMax = true;
  };

  /// Top-two running extremum (second_max and its min dual).
  struct Second {
    uint16_t M1 = 0;
    uint16_t M2 = 0;
    bool IsMax = true;
  };

  /// Folds the whole segment into \p State (NumFields slots), one fused
  /// native pass per lane/kernel. Read-only state is untouched; safe to
  /// call concurrently on distinct states.
  void fold(int64_t *State, const int64_t *Data, size_t N) const;

  /// Human-readable kernel summary, e.g. "s:add(in)[in>5]; cnt:add(1)".
  const std::string &describe() const { return Desc; }

  const std::vector<Lane> &lanes() const { return Lanes; }
  const std::vector<Counted> &countedKernels() const { return Counteds; }
  const std::vector<Second> &secondKernels() const { return Seconds; }

private:
  friend std::optional<SpecializedStep>
  specializeStep(const lang::SerialProgram &Prog);

  std::vector<Lane> Lanes;
  std::vector<Counted> Counteds;
  std::vector<Second> Seconds;
  std::string Desc;
};

/// Tries to match every state field of \p Prog against the specialized
/// kernel shapes. Returns nullopt when any field falls outside them (the
/// program then executes on the loop-resident VM tier) or when the state
/// is bag-typed (bags have their own native hash-set kernel).
std::optional<SpecializedStep> specializeStep(const lang::SerialProgram &Prog);

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_SPECIALIZE_H
