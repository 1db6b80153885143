//===- tests/ir_bytecode_opt_test.cpp - Peephole optimizer certification --===//
//
// The peephole pass (constant folding, copy propagation, DCE, register
// compaction) and the loop-resident VM are never trusted: this file
// certifies both differentially. Randomly generated well-formed bytecode
// is run optimized and unoptimized on random register states and must
// agree bit-for-bit; foldLoop must agree with an element-at-a-time
// reference fold including the simultaneous-writeback hazard, and
// foldLoopUntil must also stop where that fold first sees its flag.
//
//===----------------------------------------------------------------------===//

#include "ir/Bytecode.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace grassp;
using ir::BcInstr;
using ir::BcOp;
using ir::BytecodeFunction;

namespace {

/// Runs \p F on a copy of \p Inputs (first numInputs() slots) and
/// returns the outputs.
std::vector<int64_t> evalOn(const BytecodeFunction &F,
                            const std::vector<int64_t> &Inputs) {
  std::vector<int64_t> Regs(F.numRegs(), 0);
  for (unsigned I = 0; I != F.numInputs(); ++I)
    Regs[I] = Inputs[I];
  std::vector<int64_t> Out(F.numOutputs(), 0);
  F.run(Regs.data(), Out.data());
  return Out;
}

/// Generates a random well-formed function: every operand reads an
/// input or an already-defined temporary (reads of undefined scratch
/// would make optimized/unoptimized comparison meaningless), while
/// destinations may freely redefine earlier registers — the non-SSA case
/// the optimizer's fact-killing must handle.
BytecodeFunction randomFunction(Rng &R, unsigned NumInputs,
                                unsigned NumInstrs, unsigned NumOutputs) {
  std::vector<BcInstr> Instrs;
  unsigned Defined = NumInputs;
  const unsigned MaxRegs = NumInputs + NumInstrs + 1;
  for (unsigned I = 0; I != NumInstrs; ++I) {
    BcInstr In;
    In.Opcode = static_cast<BcOp>(
        R.bounded(static_cast<uint64_t>(BcOp::Select) + 1));
    auto anyDefined = [&] {
      return static_cast<uint16_t>(R.bounded(Defined));
    };
    unsigned Ops = ir::bcNumOperands(In.Opcode);
    if (Ops >= 1)
      In.A = anyDefined();
    if (Ops >= 2)
      In.B = anyDefined();
    if (Ops >= 3)
      In.C = anyDefined();
    if (In.Opcode == BcOp::Const)
      In.Imm = static_cast<int64_t>(R.bounded(21)) - 10;
    // Half the writes redefine an existing register, half open a new
    // temporary.
    if (Defined < MaxRegs && R.chance(1, 2)) {
      In.Dst = static_cast<uint16_t>(Defined++);
    } else {
      In.Dst = static_cast<uint16_t>(R.bounded(Defined));
    }
    Instrs.push_back(In);
  }
  std::vector<uint16_t> Outputs;
  for (unsigned I = 0; I != NumOutputs; ++I)
    Outputs.push_back(static_cast<uint16_t>(R.bounded(Defined)));
  return BytecodeFunction::fromInstrs(std::move(Instrs), NumInputs, Defined,
                                      std::move(Outputs));
}

TEST(BytecodeOpt, OptimizedAgreesOnRandomProgramsAndStates) {
  Rng R(0x5eed);
  for (unsigned Trial = 0; Trial != 400; ++Trial) {
    unsigned NumInputs = 1 + static_cast<unsigned>(R.bounded(4));
    unsigned NumInstrs = static_cast<unsigned>(R.bounded(24));
    unsigned NumOutputs = 1 + static_cast<unsigned>(R.bounded(3));
    BytecodeFunction F = randomFunction(R, NumInputs, NumInstrs, NumOutputs);
    BytecodeFunction Opt = F.optimized();
    ASSERT_EQ(Opt.numInputs(), F.numInputs());
    ASSERT_EQ(Opt.numOutputs(), F.numOutputs());
    EXPECT_LE(Opt.numInstrs(), F.numInstrs());
    EXPECT_LE(Opt.numRegs(), F.numRegs());
    for (unsigned Run = 0; Run != 8; ++Run) {
      std::vector<int64_t> Inputs;
      for (unsigned I = 0; I != NumInputs; ++I)
        Inputs.push_back(R.range(-1000000, 1000000));
      EXPECT_EQ(evalOn(Opt, Inputs), evalOn(F, Inputs))
          << "trial " << Trial << " run " << Run;
    }
  }
}

TEST(BytecodeOpt, OptimizeIsIdempotent) {
  Rng R(42);
  for (unsigned Trial = 0; Trial != 50; ++Trial) {
    BytecodeFunction F = randomFunction(R, 2, 16, 2);
    BytecodeFunction O1 = F.optimized();
    BytecodeFunction O2 = O1.optimized();
    EXPECT_EQ(O2.numInstrs(), O1.numInstrs());
    for (unsigned Run = 0; Run != 4; ++Run) {
      std::vector<int64_t> In = {R.range(-50, 50), R.range(-50, 50)};
      EXPECT_EQ(evalOn(O2, In), evalOn(O1, In));
    }
  }
}

TEST(BytecodeOpt, FoldsConstantExpressions) {
  // out = (3 + 4) * 2 over one (unused) input: must fold to one Const.
  std::vector<BcInstr> Is = {
      {BcOp::Const, 1, 0, 0, 0, 3},
      {BcOp::Const, 2, 0, 0, 0, 4},
      {BcOp::Add, 3, 1, 2, 0, 0},
      {BcOp::Const, 4, 0, 0, 0, 2},
      {BcOp::Mul, 5, 3, 4, 0, 0},
  };
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 1, 6, {5});
  BytecodeFunction O = F.optimized();
  ASSERT_EQ(O.numInstrs(), 1u);
  EXPECT_EQ(O.instrs()[0].Opcode, BcOp::Const);
  EXPECT_EQ(O.instrs()[0].Imm, 14);
}

TEST(BytecodeOpt, PropagatesCopiesAndDropsDeadCode) {
  // t1 = in0; t2 = t1; out = t2 + in1; plus an unused add. The copies
  // and the dead add must vanish: a single Add over the input slots.
  std::vector<BcInstr> Is = {
      {BcOp::Copy, 2, 0, 0, 0, 0},
      {BcOp::Copy, 3, 2, 0, 0, 0},
      {BcOp::Add, 4, 3, 1, 0, 0},
      {BcOp::Add, 5, 3, 3, 0, 0}, // dead.
  };
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 2, 6, {4});
  BytecodeFunction O = F.optimized();
  ASSERT_EQ(O.numInstrs(), 1u);
  EXPECT_EQ(O.instrs()[0].Opcode, BcOp::Add);
  EXPECT_EQ(O.instrs()[0].A, 0);
  EXPECT_EQ(O.instrs()[0].B, 1);
  EXPECT_EQ(O.numRegs(), 3u); // two inputs + one compacted temp.
}

TEST(BytecodeOpt, SelectWithKnownConditionBecomesCopy) {
  // cond = 1; out = cond ? in0 : in1 -> out is in0 directly.
  std::vector<BcInstr> Is = {
      {BcOp::Const, 2, 0, 0, 0, 1},
      {BcOp::Select, 3, 2, 0, 1, 0},
  };
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 2, 4, {3});
  BytecodeFunction O = F.optimized();
  EXPECT_EQ(O.numInstrs(), 0u); // output register resolved to input 0.
  EXPECT_EQ(evalOn(O, {7, 9})[0], 7);
}

TEST(BytecodeOpt, BooleanNormalizationIsNotBrokenByIdentityRules) {
  // or(x, 0) normalizes x to 0/1 and must NOT become copy(x).
  std::vector<BcInstr> Is = {
      {BcOp::Const, 1, 0, 0, 0, 0},
      {BcOp::Or, 2, 0, 1, 0, 0},
  };
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 1, 3, {2});
  BytecodeFunction O = F.optimized();
  EXPECT_EQ(evalOn(O, {5})[0], 1);
  EXPECT_EQ(evalOn(O, {0})[0], 0);
  EXPECT_EQ(evalOn(O, {-3})[0], 1);
}

TEST(BytecodeOpt, RedefinitionKillsStaleFacts) {
  // t = in0; in0-slot redefined; out = t must still see the OLD value.
  // (Non-SSA hazard: the copy fact rooted at reg 0 dies on redefine.)
  std::vector<BcInstr> Is = {
      {BcOp::Copy, 1, 0, 0, 0, 0},
      {BcOp::Const, 0, 0, 0, 0, 999},
      {BcOp::Add, 2, 1, 0, 0, 0}, // old-in0 + 999.
  };
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 1, 3, {2});
  BytecodeFunction O = F.optimized();
  EXPECT_EQ(evalOn(O, {5})[0], evalOn(F, {5})[0]);
  EXPECT_EQ(evalOn(O, {5})[0], 1004);
}

//===----------------------------------------------------------------------===//
// foldLoop (the loop-resident VM)
//===----------------------------------------------------------------------===//

/// Element-at-a-time reference fold through run().
std::vector<int64_t> refFold(const BytecodeFunction &F,
                             std::vector<int64_t> State,
                             const std::vector<int64_t> &Data) {
  std::vector<int64_t> Regs(F.numRegs(), 0);
  for (int64_t El : Data) {
    for (size_t K = 0; K != State.size(); ++K)
      Regs[K] = State[K];
    Regs[State.size()] = El;
    F.run(Regs.data(), State.data());
  }
  return State;
}

std::vector<int64_t> loopFold(const BytecodeFunction &F,
                              std::vector<int64_t> State,
                              const std::vector<int64_t> &Data) {
  std::vector<int64_t> Scratch(F.scratchSize(), 0);
  F.foldLoop(Data.data(), Data.size(), State.data(), Scratch.data());
  return State;
}

TEST(FoldLoop, SimultaneousWritebackReadsPreStepState) {
  // f(a, b, x) = (b, a + x): new a must read the OLD b and new b the OLD
  // a — the aliasing hazard the staging area exists for.
  std::vector<BcInstr> Is = {{BcOp::Add, 3, 0, 2, 0, 0}};
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 3, 4, {1, 3});
  std::vector<int64_t> Data = {10, 100, 1000};
  std::vector<int64_t> Want = refFold(F, {1, 2}, Data);
  EXPECT_EQ(loopFold(F, {1, 2}, Data), Want);
}

TEST(FoldLoop, EmptyProgramAndEmptyDataAreNoOps) {
  // Identity step: outputs are the state input slots themselves.
  BytecodeFunction F = BytecodeFunction::fromInstrs({}, 2, 2, {0});
  EXPECT_EQ(loopFold(F, {7}, {1, 2, 3}), (std::vector<int64_t>{7}));
  std::vector<BcInstr> Is = {{BcOp::Add, 2, 0, 1, 0, 0}};
  BytecodeFunction G = BytecodeFunction::fromInstrs(Is, 2, 3, {2});
  EXPECT_EQ(loopFold(G, {5}, {}), (std::vector<int64_t>{5}));
}

TEST(FoldLoop, AgreesWithPerElementOnRandomStepFunctions) {
  Rng R(0xf01d);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    unsigned NumFields = 1 + static_cast<unsigned>(R.bounded(3));
    BytecodeFunction F =
        randomFunction(R, NumFields + 1,
                       1 + static_cast<unsigned>(R.bounded(16)), NumFields);
    std::vector<int64_t> State;
    for (unsigned I = 0; I != NumFields; ++I)
      State.push_back(R.range(-100, 100));
    std::vector<int64_t> Data;
    for (unsigned I = 0, N = static_cast<unsigned>(R.bounded(50)); I != N;
         ++I)
      Data.push_back(R.range(-1000, 1000));
    EXPECT_EQ(loopFold(F, State, Data), refFold(F, State, Data))
        << "trial " << Trial;
    // The optimized function must fold identically too.
    BytecodeFunction O = F.optimized();
    EXPECT_EQ(loopFold(O, State, Data), refFold(F, State, Data))
        << "optimized, trial " << Trial;
  }
}

TEST(FoldLoopUntil, StopsBeforeTheFirstFlaggedElement) {
  Rng R(0x5709);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    unsigned NumFields = static_cast<unsigned>(R.bounded(3));
    // One more output than fields: the last is the stop flag.
    BytecodeFunction F = randomFunction(
        R, NumFields + 1, 1 + static_cast<unsigned>(R.bounded(16)),
        NumFields + 1);
    std::vector<int64_t> State;
    for (unsigned I = 0; I != NumFields; ++I)
      State.push_back(R.range(-100, 100));
    std::vector<int64_t> Data;
    for (unsigned I = 0, N = static_cast<unsigned>(R.bounded(50)); I != N;
         ++I)
      Data.push_back(R.range(-3, 3));

    // Reference: one run() per element, stopping at the first flag.
    std::vector<int64_t> Want = State;
    size_t Stop = 0;
    for (; Stop != Data.size(); ++Stop) {
      std::vector<int64_t> In = Want;
      In.push_back(Data[Stop]);
      std::vector<int64_t> Out = evalOn(F, In);
      if (Out.back() != 0)
        break;
      Want.assign(Out.begin(), Out.end() - 1);
    }
    for (const BytecodeFunction &G : {F, F.optimized()}) {
      std::vector<int64_t> Got = State;
      std::vector<int64_t> Scratch(G.scratchSize(), 0);
      EXPECT_EQ(G.foldLoopUntil(Data.data(), Data.size(), Got.data(),
                                Scratch.data()),
                Stop)
          << "trial " << Trial;
      EXPECT_EQ(Got, Want) << "trial " << Trial;
    }
  }
}

} // namespace
