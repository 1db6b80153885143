//===- ir/Bytecode.h - Register bytecode for hot fold loops --------------===//
//
// The parallel runtime folds step functions over hundreds of millions of
// elements; a tree-walking interpreter would dominate the measurement. We
// therefore compile scalar expressions into a linear register bytecode.
// Two execution entry points exist:
//
//  * run()      - one call per evaluation (the historical per-element
//                 path, kept as the portable baseline tier);
//  * foldLoop() - the loop-resident fold: the *entire* segment loop runs
//                 inside the VM, state stays in the register file across
//                 iterations, the register file is caller-provided
//                 scratch, and dispatch uses computed-goto threading.
//
// Bytecode is post-processed by optimized(): a peephole pass doing
// constant folding, copy propagation, dead-instruction elimination, and
// register-file compaction. The optimizer is certified by differential
// testing (optimized == unoptimized on random register states), not
// trusted.
//
// Bags are not supported here — the one bag-typed benchmark uses a
// native hash-set kernel in the runtime.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_IR_BYTECODE_H
#define GRASSP_IR_BYTECODE_H

#include "ir/Expr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grassp {
namespace ir {

/// Bytecode opcodes. Booleans are 0/1 int64 registers.
enum class BcOp : uint8_t {
  Const, // R[Dst] = Imm
  Copy,  // R[Dst] = R[A]
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Neg,
  Min,
  Max,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
  Not,
  Select, // R[Dst] = R[A] ? R[B] : R[C]
};

/// One bytecode instruction (three-address with an immediate).
struct BcInstr {
  BcOp Opcode;
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int64_t Imm = 0;
};

/// Number of register operands an instruction of opcode \p O reads
/// (Const: 0, Copy/Neg/Not: 1, Select: 3, everything else: 2).
unsigned bcNumOperands(BcOp O);

/// Evaluates one non-Const, non-Copy opcode on concrete operand values,
/// with the VM's total Div/Mod semantics (floor division, non-negative
/// remainder, x/0 = x%0 = 0). Shared by the VM, the peephole constant
/// folder, and the optimizer tests.
int64_t evalBcOp(BcOp O, int64_t A, int64_t B, int64_t C);

/// A compiled multi-output function over named scalar inputs.
///
/// Inputs occupy registers [0, NumInputs); the compiler appends temporary
/// registers after them. \c run() expects the caller to have stored input
/// values in the first NumInputs slots of the register file and writes the
/// results into \p Out.
class BytecodeFunction {
public:
  /// Compiles \p Roots over inputs \p InputNames (slot i = name i).
  /// Expressions must be bag-free; asserts otherwise.
  static BytecodeFunction
  compile(const std::vector<ExprRef> &Roots,
          const std::vector<std::string> &InputNames);

  /// Builds a function from raw instructions (optimizer unit tests and
  /// fuzzers; compile() is the production path). Output registers must be
  /// < \p NumRegs and every instruction must stay inside the register
  /// file.
  static BytecodeFunction fromInstrs(std::vector<BcInstr> Instrs,
                                     unsigned NumInputs, unsigned NumRegs,
                                     std::vector<uint16_t> OutputRegs);

  unsigned numInputs() const { return NumInputs; }
  unsigned numRegs() const { return NumRegs; }
  unsigned numOutputs() const {
    return static_cast<unsigned>(OutputRegs.size());
  }
  size_t numInstrs() const { return Instrs.size(); }
  const std::vector<BcInstr> &instrs() const { return Instrs; }
  const std::vector<uint16_t> &outputRegs() const { return OutputRegs; }

  /// Returns a semantically equivalent function after the peephole pass:
  /// constant folding (including Select with a known condition and
  /// identity/absorbing elements), copy propagation, dead-instruction
  /// elimination, and register compaction. Inputs keep their slots.
  BytecodeFunction optimized() const;

  /// Executes the function. \p Regs must have numRegs() slots with inputs
  /// filled in; results are written to \p Out (numOutputs() slots).
  void run(int64_t *Regs, int64_t *Out) const;

  /// Scratch slots foldLoop() needs: the register file plus a writeback
  /// staging area for the simultaneous state assignment.
  size_t scratchSize() const { return NumRegs + OutputRegs.size(); }

  /// Loop-resident fold for step functions whose inputs are the state
  /// fields followed by the input element (numOutputs() + 1 ==
  /// numInputs()). Folds the function over \p Data: each iteration binds
  /// element i to the last input slot, evaluates, and writes the outputs
  /// back into the state slots simultaneously. \p State carries
  /// numOutputs() values in and out; \p Scratch must have scratchSize()
  /// slots and is wholly clobbered. State lives in the (caller-provided)
  /// register file for the whole loop — there is no per-element VM
  /// re-entry.
  void foldLoop(const int64_t *Data, size_t N, int64_t *State,
                int64_t *Scratch) const;

private:
  std::vector<BcInstr> Instrs;
  std::vector<uint16_t> OutputRegs;
  unsigned NumInputs = 0;
  unsigned NumRegs = 0;
};

} // namespace ir
} // namespace grassp

#endif // GRASSP_IR_BYTECODE_H
