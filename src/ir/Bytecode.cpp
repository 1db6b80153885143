//===- ir/Bytecode.cpp -----------------------------------------------------=//

#include "ir/Bytecode.h"

#include "ir/Arith.h"

#include <cassert>
#include <unordered_map>

namespace grassp {
namespace ir {

unsigned bcNumOperands(BcOp O) {
  switch (O) {
  case BcOp::Const:
    return 0;
  case BcOp::Copy:
  case BcOp::Neg:
  case BcOp::Not:
    return 1;
  case BcOp::Select:
    return 3;
  default:
    return 2;
  }
}

int64_t evalBcOp(BcOp O, int64_t A, int64_t B, int64_t C) {
  switch (O) {
  case BcOp::Add:
    return wrapAdd(A, B);
  case BcOp::Sub:
    return wrapSub(A, B);
  case BcOp::Mul:
    return wrapMul(A, B);
  case BcOp::Div:
    return floorDiv(A, B);
  case BcOp::Mod:
    return euclidMod(A, B);
  case BcOp::Neg:
    return wrapNeg(A);
  case BcOp::Min:
    return A < B ? A : B;
  case BcOp::Max:
    return A > B ? A : B;
  case BcOp::Eq:
    return A == B;
  case BcOp::Ne:
    return A != B;
  case BcOp::Lt:
    return A < B;
  case BcOp::Le:
    return A <= B;
  case BcOp::Gt:
    return A > B;
  case BcOp::Ge:
    return A >= B;
  case BcOp::And:
    return (A != 0) & (B != 0);
  case BcOp::Or:
    return (A != 0) | (B != 0);
  case BcOp::Not:
    return A == 0;
  case BcOp::Select:
    return A != 0 ? B : C;
  case BcOp::Const:
  case BcOp::Copy:
    break;
  }
  assert(false && "evalBcOp: Const/Copy have no operand semantics");
  return 0;
}

namespace {

/// Compilation context: value-numbers already-compiled subexpressions so
/// shared DAG nodes are evaluated once.
class Compiler {
public:
  Compiler(std::vector<BcInstr> &Instrs, unsigned FirstTemp)
      : Instrs(Instrs), NextReg(FirstTemp) {}

  uint16_t compile(const ExprRef &E,
                   const std::unordered_map<std::string, uint16_t> &Slots) {
    auto It = Cache.find(E.get());
    if (It != Cache.end())
      return It->second;
    uint16_t R = compileUncached(E, Slots);
    Cache.emplace(E.get(), R);
    return R;
  }

  unsigned nextReg() const { return NextReg; }

private:
  uint16_t fresh() {
    assert(NextReg < 0xffff && "register file overflow");
    return static_cast<uint16_t>(NextReg++);
  }

  uint16_t emitBin(BcOp O, uint16_t A, uint16_t B) {
    uint16_t D = fresh();
    Instrs.push_back({O, D, A, B, 0, 0});
    return D;
  }

  uint16_t
  compileUncached(const ExprRef &E,
                  const std::unordered_map<std::string, uint16_t> &Slots) {
    switch (E->getOp()) {
    case Op::ConstInt: {
      uint16_t D = fresh();
      Instrs.push_back({BcOp::Const, D, 0, 0, 0, E->intValue()});
      return D;
    }
    case Op::ConstBool: {
      uint16_t D = fresh();
      Instrs.push_back({BcOp::Const, D, 0, 0, 0, E->boolValue() ? 1 : 0});
      return D;
    }
    case Op::Var: {
      auto It = Slots.find(E->varName());
      assert(It != Slots.end() && "unbound variable in bytecode compile");
      return It->second;
    }
    case Op::Neg: {
      uint16_t A = compile(E->operand(0), Slots);
      uint16_t D = fresh();
      Instrs.push_back({BcOp::Neg, D, A, 0, 0, 0});
      return D;
    }
    case Op::Not: {
      uint16_t A = compile(E->operand(0), Slots);
      uint16_t D = fresh();
      Instrs.push_back({BcOp::Not, D, A, 0, 0, 0});
      return D;
    }
    case Op::Ite: {
      uint16_t C = compile(E->operand(0), Slots);
      uint16_t T = compile(E->operand(1), Slots);
      uint16_t F = compile(E->operand(2), Slots);
      uint16_t D = fresh();
      Instrs.push_back({BcOp::Select, D, C, T, F, 0});
      return D;
    }
    case Op::BagInsertDistinct:
    case Op::BagUnion:
    case Op::BagSize:
      assert(false && "bag operations are not bytecode-compilable");
      return 0;
    default:
      break;
    }
    uint16_t A = compile(E->operand(0), Slots);
    uint16_t B = compile(E->operand(1), Slots);
    switch (E->getOp()) {
    case Op::Add:
      return emitBin(BcOp::Add, A, B);
    case Op::Sub:
      return emitBin(BcOp::Sub, A, B);
    case Op::Mul:
      return emitBin(BcOp::Mul, A, B);
    case Op::Div:
      return emitBin(BcOp::Div, A, B);
    case Op::Mod:
      return emitBin(BcOp::Mod, A, B);
    case Op::Min:
      return emitBin(BcOp::Min, A, B);
    case Op::Max:
      return emitBin(BcOp::Max, A, B);
    case Op::Eq:
      return emitBin(BcOp::Eq, A, B);
    case Op::Ne:
      return emitBin(BcOp::Ne, A, B);
    case Op::Lt:
      return emitBin(BcOp::Lt, A, B);
    case Op::Le:
      return emitBin(BcOp::Le, A, B);
    case Op::Gt:
      return emitBin(BcOp::Gt, A, B);
    case Op::Ge:
      return emitBin(BcOp::Ge, A, B);
    case Op::And:
      return emitBin(BcOp::And, A, B);
    case Op::Or:
      return emitBin(BcOp::Or, A, B);
    default:
      assert(false && "unhandled opcode");
      return 0;
    }
  }

  std::vector<BcInstr> &Instrs;
  unsigned NextReg;
  std::unordered_map<const Expr *, uint16_t> Cache;
};

} // namespace

BytecodeFunction
BytecodeFunction::compile(const std::vector<ExprRef> &Roots,
                          const std::vector<std::string> &InputNames) {
  BytecodeFunction F;
  F.NumInputs = static_cast<unsigned>(InputNames.size());
  std::unordered_map<std::string, uint16_t> Slots;
  for (unsigned I = 0; I != F.NumInputs; ++I)
    Slots.emplace(InputNames[I], static_cast<uint16_t>(I));
  Compiler C(F.Instrs, F.NumInputs);
  for (const ExprRef &Root : Roots)
    F.OutputRegs.push_back(C.compile(Root, Slots));
  F.NumRegs = C.nextReg();
  return F;
}

BytecodeFunction
BytecodeFunction::fromInstrs(std::vector<BcInstr> Instrs, unsigned NumInputs,
                             unsigned NumRegs,
                             std::vector<uint16_t> OutputRegs) {
  assert(NumInputs <= NumRegs && "inputs must fit in the register file");
#ifndef NDEBUG
  for (const BcInstr &I : Instrs) {
    assert(I.Dst < NumRegs && "destination outside the register file");
    unsigned Ops = bcNumOperands(I.Opcode);
    assert((Ops < 1 || I.A < NumRegs) && (Ops < 2 || I.B < NumRegs) &&
           (Ops < 3 || I.C < NumRegs) && "operand outside the register file");
  }
  for (uint16_t R : OutputRegs)
    assert(R < NumRegs && "output register outside the register file");
#endif
  BytecodeFunction F;
  F.Instrs = std::move(Instrs);
  F.OutputRegs = std::move(OutputRegs);
  F.NumInputs = NumInputs;
  F.NumRegs = NumRegs;
  return F;
}

void BytecodeFunction::run(int64_t *R, int64_t *Out) const {
  for (const BcInstr &I : Instrs) {
    switch (I.Opcode) {
    case BcOp::Const:
      R[I.Dst] = I.Imm;
      break;
    case BcOp::Copy:
      R[I.Dst] = R[I.A];
      break;
    default:
      R[I.Dst] = evalBcOp(I.Opcode, R[I.A], R[I.B], R[I.C]);
      break;
    }
  }
  for (size_t I = 0, N = OutputRegs.size(); I != N; ++I)
    Out[I] = R[OutputRegs[I]];
}

void BytecodeFunction::foldLoop(const int64_t *Data, size_t N,
                                int64_t *State, int64_t *Scratch) const {
  assert(numOutputs() + 1 == NumInputs &&
         "foldLoop expects inputs = state fields followed by the element");
  const unsigned NF = numOutputs();
  int64_t *const R = Scratch;            // the register file.
  int64_t *const Stage = Scratch + NumRegs; // simultaneous-writeback area.
  for (unsigned K = 0; K != NF; ++K)
    R[K] = State[K];
  const BcInstr *const Base = Instrs.data();
  const BcInstr *const EndI = Base + Instrs.size();
  const uint16_t *const ORegs = OutputRegs.data();

  // Threaded (computed-goto) dispatch via the labels-as-values extension,
  // which GCC and Clang support regardless of the -std= dialect. One label
  // per opcode; table order must match the BcOp enum. Dispatch jumps
  // directly from the end of one handler to the start of the next, so the
  // element loop never leaves this frame.
  static const void *const Tbl[] = {
      &&L_Const, &&L_Copy, &&L_Add, &&L_Sub, &&L_Mul, &&L_Div, &&L_Mod,
      &&L_Neg,   &&L_Min,  &&L_Max, &&L_Eq,  &&L_Ne,  &&L_Lt,  &&L_Le,
      &&L_Gt,    &&L_Ge,   &&L_And, &&L_Or,  &&L_Not, &&L_Select};
  static_assert(sizeof(Tbl) / sizeof(Tbl[0]) ==
                    static_cast<size_t>(BcOp::Select) + 1,
                "dispatch table out of sync with BcOp");
  const BcInstr *IP = Base;
  size_t I = 0;

#define GRASSP_BC_NEXT                                                        \
  do {                                                                        \
    if (++IP == EndI)                                                         \
      goto L_IterDone;                                                        \
    goto *Tbl[static_cast<unsigned>(IP->Opcode)];                             \
  } while (0)

L_IterBegin:
  if (I == N)
    goto L_AllDone;
  R[NF] = Data[I];
  IP = Base;
  if (IP == EndI)
    goto L_IterDone;
  goto *Tbl[static_cast<unsigned>(IP->Opcode)];

L_Const:
  R[IP->Dst] = IP->Imm;
  GRASSP_BC_NEXT;
L_Copy:
  R[IP->Dst] = R[IP->A];
  GRASSP_BC_NEXT;
L_Add:
  R[IP->Dst] = wrapAdd(R[IP->A], R[IP->B]);
  GRASSP_BC_NEXT;
L_Sub:
  R[IP->Dst] = wrapSub(R[IP->A], R[IP->B]);
  GRASSP_BC_NEXT;
L_Mul:
  R[IP->Dst] = wrapMul(R[IP->A], R[IP->B]);
  GRASSP_BC_NEXT;
L_Div:
  R[IP->Dst] = floorDiv(R[IP->A], R[IP->B]);
  GRASSP_BC_NEXT;
L_Mod:
  R[IP->Dst] = euclidMod(R[IP->A], R[IP->B]);
  GRASSP_BC_NEXT;
L_Neg:
  R[IP->Dst] = wrapNeg(R[IP->A]);
  GRASSP_BC_NEXT;
L_Min:
  R[IP->Dst] = R[IP->A] < R[IP->B] ? R[IP->A] : R[IP->B];
  GRASSP_BC_NEXT;
L_Max:
  R[IP->Dst] = R[IP->A] > R[IP->B] ? R[IP->A] : R[IP->B];
  GRASSP_BC_NEXT;
L_Eq:
  R[IP->Dst] = R[IP->A] == R[IP->B];
  GRASSP_BC_NEXT;
L_Ne:
  R[IP->Dst] = R[IP->A] != R[IP->B];
  GRASSP_BC_NEXT;
L_Lt:
  R[IP->Dst] = R[IP->A] < R[IP->B];
  GRASSP_BC_NEXT;
L_Le:
  R[IP->Dst] = R[IP->A] <= R[IP->B];
  GRASSP_BC_NEXT;
L_Gt:
  R[IP->Dst] = R[IP->A] > R[IP->B];
  GRASSP_BC_NEXT;
L_Ge:
  R[IP->Dst] = R[IP->A] >= R[IP->B];
  GRASSP_BC_NEXT;
L_And:
  R[IP->Dst] = (R[IP->A] != 0) & (R[IP->B] != 0);
  GRASSP_BC_NEXT;
L_Or:
  R[IP->Dst] = (R[IP->A] != 0) | (R[IP->B] != 0);
  GRASSP_BC_NEXT;
L_Not:
  R[IP->Dst] = R[IP->A] == 0;
  GRASSP_BC_NEXT;
L_Select: {
  // Mask blend instead of a ternary: a data-dependent branch here
  // mispredicts on every unpredictable guard (the exact shape guarded
  // accumulators feed this VM), costing more than the whole rest of
  // the dispatch loop.
  const int64_t M = -static_cast<int64_t>(R[IP->A] != 0);
  R[IP->Dst] = ((R[IP->B] ^ R[IP->C]) & M) ^ R[IP->C];
}
  GRASSP_BC_NEXT;

L_IterDone:
  // Simultaneous assignment: read every output before writing any state
  // slot (an output may name another field's input register).
  for (unsigned K = 0; K != NF; ++K)
    Stage[K] = R[ORegs[K]];
  for (unsigned K = 0; K != NF; ++K)
    R[K] = Stage[K];
  ++I;
  goto L_IterBegin;

L_AllDone:;
#undef GRASSP_BC_NEXT
  for (unsigned K = 0; K != NF; ++K)
    State[K] = R[K];
}

} // namespace ir
} // namespace grassp
