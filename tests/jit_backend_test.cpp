//===- tests/jit_backend_test.cpp - Native jit tier certification ---------===//
//
// The jit backend is never trusted: emitted-C++ fold kernels are
// certified differentially against the per-element reference fold on
// randomly generated optimized bytecode (including redefinitions and
// the full opcode set) and on the real benchmark suite's guarded and
// modulo lanes. Also pins the cache discipline — one dlopen handle per
// bytecode hash in memory, objects reused from disk across
// clearMemoryCache, objects from an older emitter version never reused —
// and the graceful-fallback paths (bogus compiler,
// non-fold shapes, the --no-native ablation, GRASSP_JIT_DISABLE).
//
// Every test that needs the host compiler skips cleanly without one;
// the fallback tests run everywhere.
//
//===----------------------------------------------------------------------===//

#include "ir/Bytecode.h"
#include "jit/NativeKernel.h"
#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Kernels.h"
#include "runtime/Workload.h"
#include "support/ChildProc.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace grassp;
using ir::BcInstr;
using ir::BcOp;
using ir::BytecodeFunction;

namespace {

/// Fresh per-suite disk cache so this process's compiles never collide
/// with (or get satisfied by) a previous run's objects.
std::string testCacheDir() {
  return ::testing::TempDir() + "grassp-jit-test-cache";
}

jit::JitOptions testOptions() {
  jit::JitOptions O;
  O.CacheDir = testCacheDir();
  return O;
}

/// Random well-formed function (same idiom as ir_bytecode_opt_test):
/// operands always read defined registers, destinations may redefine.
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

/// Element-at-a-time reference fold through run() — the ground truth the
/// native kernel must reproduce bit-for-bit.
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

TEST(JitBackend, NativeAgreesWithReferenceOnRandomOptimizedPrograms) {
  if (!jit::hostCompilerAvailable())
    GTEST_SKIP() << "no host compiler; the fallback tests still run";
  Rng R(0x1a7e);
  jit::JitOptions Opts = testOptions();
  for (unsigned Trial = 0; Trial != 25; ++Trial) {
    unsigned NumFields = 1 + static_cast<unsigned>(R.bounded(3));
    BytecodeFunction F =
        randomFunction(R, NumFields + 1,
                       1 + static_cast<unsigned>(R.bounded(16)), NumFields);
    BytecodeFunction Opt = F.optimized();
    std::string Err;
    std::shared_ptr<const jit::NativeKernel> K =
        jit::compileFoldKernel(Opt, Opts, &Err);
    ASSERT_NE(K, nullptr) << "trial " << Trial << ": " << Err;
    EXPECT_EQ(K->hash(), jit::bytecodeHash(Opt));

    for (unsigned Run = 0; Run != 4; ++Run) {
      std::vector<int64_t> State;
      for (unsigned I = 0; I != NumFields; ++I)
        State.push_back(R.range(-100, 100));
      std::vector<int64_t> Data;
      for (unsigned I = 0, N = static_cast<unsigned>(R.bounded(60)); I != N;
           ++I)
        Data.push_back(R.range(-1000, 1000));

      std::vector<int64_t> Native = State;
      K->fold(Native.data(), Data.data(), Data.size());
      EXPECT_EQ(Native, refFold(F, State, Data))
          << "trial " << Trial << " run " << Run;
    }
  }
}

TEST(JitBackend, NativeWrapsLikeTheVMOnExtremeValues) {
  if (!jit::hostCompilerAvailable())
    GTEST_SKIP() << "no host compiler";
  // Every arithmetic opcode chained on INT64_MIN/INT64_MAX/-1 data: add,
  // sub, mul and neg wrap, and INT64_MIN / -1 wraps instead of trapping
  // (mod -1 is 0), identically in the VM loop, run() and the kernel.
  std::vector<BcInstr> Is = {{BcOp::Mul, 2, 0, 1, 0, 0},
                             {BcOp::Div, 3, 2, 1, 0, 0},
                             {BcOp::Mod, 4, 0, 1, 0, 0},
                             {BcOp::Neg, 5, 3, 0, 0, 0},
                             {BcOp::Add, 6, 5, 4, 0, 0},
                             {BcOp::Sub, 7, 6, 1, 0, 0}};
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 2, 8, {7});
  std::string Err;
  std::shared_ptr<const jit::NativeKernel> K =
      jit::compileFoldKernel(F, testOptions(), &Err);
  ASSERT_NE(K, nullptr) << Err;
  const int64_t Edge[] = {INT64_MIN, INT64_MIN + 1, -1, 0, 1, 3,
                          INT64_MAX - 1, INT64_MAX};
  Rng R(0xed9e);
  for (int64_t Init : Edge) {
    std::vector<int64_t> Data;
    for (unsigned I = 0; I != 40; ++I)
      Data.push_back(R.chance(1, 2) ? Edge[R.bounded(std::size(Edge))]
                                    : static_cast<int64_t>(R.next()));
    std::vector<int64_t> Ref = refFold(F, {Init}, Data);
    std::vector<int64_t> Native = {Init};
    K->fold(Native.data(), Data.data(), Data.size());
    std::vector<int64_t> Loop = {Init};
    std::vector<int64_t> Scratch(F.scratchSize());
    F.foldLoop(Data.data(), Data.size(), Loop.data(), Scratch.data());
    EXPECT_EQ(Native, Ref) << "init " << Init;
    EXPECT_EQ(Loop, Ref) << "init " << Init;
  }
  // The trapping case itself, element by element.
  std::vector<int64_t> Regs = {INT64_MIN, -1, 0, 0, 0, 0, 0, 0};
  int64_t Out = 0;
  F.run(Regs.data(), &Out);
  EXPECT_EQ(Regs[2], INT64_MIN); // INT64_MIN * -1
  EXPECT_EQ(Regs[3], INT64_MIN); // INT64_MIN / -1
  EXPECT_EQ(Regs[4], 0);         // INT64_MIN mod -1
}

TEST(JitBackend, NativeTierMatchesInterpreterOnGuardedAndModuloLanes) {
  if (!jit::hostCompilerAvailable())
    GTEST_SKIP() << "no host compiler";
  namespace rt = grassp::runtime;
  // The lanes the loop-VM regression lived in (data-dependent guards)
  // plus automaton steps that never specialize: the native tier must
  // match the reference interpreter, including Euclidean mod on
  // negative inputs and division totality.
  const char *Names[] = {"count_gt", "sum_even",      "sum_gt",
                         "count_123", "is_sorted",    "max_dist_ones",
                         "count_102", "alternating01"};
  Rng R(0x9a7d);
  for (const char *Name : Names) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    ASSERT_NE(P, nullptr) << Name;
    rt::CompiledProgram CP(*P);
    ASSERT_TRUE(CP.tierAvailable(rt::ExecTier::Native)) << Name;
    for (size_t N : {size_t{0}, size_t{1}, size_t{17}, size_t{257}}) {
      std::vector<int64_t> Data = rt::generateWorkload(*P, N, R.next());
      // Force negative inputs into the mix: the guards use Euclidean
      // mod and signed comparisons.
      for (size_t I = 0; I + 1 < Data.size(); I += 2)
        Data[I] = -Data[I];
      std::vector<rt::SegmentView> Views = {{Data.data(), Data.size()}};
      EXPECT_EQ(CP.runSerialTier(rt::ExecTier::Native, Views),
                lang::runSerial(*P, Data))
          << Name << " N=" << N;
    }
  }
}

TEST(JitBackend, KernelCacheSharesOneHandlePerHash) {
  if (!jit::hostCompilerAvailable())
    GTEST_SKIP() << "no host compiler";
  // sum-of-elements step: state + element.
  std::vector<BcInstr> Is = {{BcOp::Add, 2, 0, 1, 0, 0}};
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 2, 3, {2});

  jit::KernelCache &C = jit::KernelCache::instance();
  std::shared_ptr<const jit::NativeKernel> K1 = C.getOrCompile(F);
  ASSERT_NE(K1, nullptr) << C.lastError();
  jit::JitStats Before = C.stats();
  std::shared_ptr<const jit::NativeKernel> K2 = C.getOrCompile(F);
  ASSERT_NE(K2, nullptr);
  EXPECT_EQ(K1.get(), K2.get()); // one dlopen handle per hash.
  EXPECT_EQ(C.stats().MemoryHits, Before.MemoryHits + 1);

  // Same bytecode via a different construction hashes identically...
  std::vector<BcInstr> Is2 = {{BcOp::Add, 2, 0, 1, 0, 0}};
  BytecodeFunction G = BytecodeFunction::fromInstrs(Is2, 2, 3, {2});
  EXPECT_EQ(jit::bytecodeHash(F), jit::bytecodeHash(G));
  // ...while a different step does not.
  std::vector<BcInstr> Is3 = {{BcOp::Min, 2, 0, 1, 0, 0}};
  BytecodeFunction H = BytecodeFunction::fromInstrs(Is3, 2, 3, {2});
  EXPECT_NE(jit::bytecodeHash(F), jit::bytecodeHash(H));

  // Dropping the memory cache must reload from disk, not recompile.
  C.clearMemoryCache();
  jit::JitStats Mid = C.stats();
  std::shared_ptr<const jit::NativeKernel> K3 = C.getOrCompile(F);
  ASSERT_NE(K3, nullptr) << C.lastError();
  jit::JitStats After = C.stats();
  EXPECT_EQ(After.DiskHits, Mid.DiskHits + 1);
  EXPECT_EQ(After.Compiles, Mid.Compiles);
  // K1 stays callable through its own shared_ptr after the cache drop.
  std::vector<int64_t> State = {5};
  std::vector<int64_t> Data = {1, 2, 3};
  K1->fold(State.data(), Data.data(), Data.size());
  EXPECT_EQ(State[0], 11);
}

/// Where the disk cache keeps \p Hash's object: <Dir>/k<hash>.so.
std::string objectPath(const std::string &Dir, uint64_t Hash) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx", (unsigned long long)Hash);
  return Dir + "/k" + Hex + ".so";
}

/// Compiles a stand-in object for \p Hash into \p Dir under the disk
/// cache's naming scheme whose fold writes a poison value, so a reload
/// shows in the results.
void plantPoisonedObject(const std::string &Dir, uint64_t Hash) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx", (unsigned long long)Hash);
  const std::string SrcPath = Dir + "/poison.cpp";
  {
    std::ofstream Src(SrcPath);
    Src << "#include <cstddef>\n#include <cstdint>\n"
        << "extern \"C\" void grassp_fold_k" << Hex
        << "(const int64_t *, size_t, int64_t *State) { State[0] = 424242; }\n";
  }
  std::string Cmd = jit::shellQuote(jit::hostCxx()) + " -shared -fPIC -o " +
                    jit::shellQuote(objectPath(Dir, Hash)) + " " +
                    jit::shellQuote(SrcPath);
  int Rc = std::system(Cmd.c_str());
  ASSERT_TRUE(waitStatusOk(Rc)) << describeWaitStatus(Rc);
}

TEST(JitBackend, ObjectsFromAnOlderEmitterVersionAreNotReused) {
  if (!jit::hostCompilerAvailable())
    GTEST_SKIP() << "no host compiler";
  static_assert(jit::EmitterVersion == 2);
  std::vector<BcInstr> Is = {{BcOp::Const, 2, 0, 0, 0, 7},
                             {BcOp::Select, 3, 1, 2, 0, 0}};
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 2, 4, {3});
  const uint64_t Old = jit::bytecodeHash(F, 1);
  const uint64_t Cur = jit::bytecodeHash(F);
  ASSERT_NE(Old, Cur);
  std::vector<int64_t> Data = {0, 3, 0, 5};

  // Control: an object planted under the current hash is reloaded, so
  // the planted file really sits where the disk cache looks.
  jit::JitOptions Same = testOptions();
  Same.CacheDir = ::testing::TempDir() + "grassp-jit-same-version";
  ::mkdir(Same.CacheDir.c_str(), 0700);
  plantPoisonedObject(Same.CacheDir, Cur);
  bool Reused = false;
  std::string Err;
  std::shared_ptr<const jit::NativeKernel> K =
      jit::compileFoldKernel(F, Same, &Err, &Reused);
  ASSERT_NE(K, nullptr) << Err;
  EXPECT_TRUE(Reused);
  std::vector<int64_t> State = {1};
  K->fold(State.data(), Data.data(), Data.size());
  EXPECT_EQ(State[0], 424242);

  // A version-1 object for the same bytecode is ignored: the kernel is
  // compiled afresh under the version-2 hash and computes the real fold.
  jit::JitOptions Stale = testOptions();
  Stale.CacheDir = ::testing::TempDir() + "grassp-jit-stale-version";
  ::mkdir(Stale.CacheDir.c_str(), 0700);
  plantPoisonedObject(Stale.CacheDir, Old);
  std::remove(objectPath(Stale.CacheDir, Cur).c_str()); // an earlier run's.
  K = jit::compileFoldKernel(F, Stale, &Err, &Reused);
  ASSERT_NE(K, nullptr) << Err;
  EXPECT_FALSE(Reused);
  EXPECT_EQ(K->hash(), Cur);
  State = {1};
  K->fold(State.data(), Data.data(), Data.size());
  EXPECT_EQ(State[0], 7); // sel(in, 7, s): the last nonzero element wins.
}

TEST(JitBackend, BogusCompilerFailsWithDecodedError) {
  std::vector<BcInstr> Is = {{BcOp::Add, 2, 0, 1, 0, 0}};
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 2, 3, {2});
  jit::JitOptions O = testOptions();
  O.Cxx = "/nonexistent/grassp-no-such-compiler";
  O.DiskCache = false; // must not be satisfied by a cached object.
  std::string Err;
  std::shared_ptr<const jit::NativeKernel> K =
      jit::compileFoldKernel(F, O, &Err);
  EXPECT_EQ(K, nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(JitBackend, NonFoldShapeIsRejected) {
  // numOutputs + 1 != numInputs: not a fold step, never compiled.
  std::vector<BcInstr> Is = {{BcOp::Add, 2, 0, 1, 0, 0}};
  BytecodeFunction F = BytecodeFunction::fromInstrs(Is, 2, 3, {2, 2});
  std::string Err;
  EXPECT_EQ(jit::compileFoldKernel(F, testOptions(), &Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(JitBackend, AblationAndKillSwitchDisableTheTier) {
  namespace rt = grassp::runtime;
  const lang::SerialProgram *P = lang::findBenchmark("is_sorted");
  ASSERT_NE(P, nullptr);
  // --no-native: the tier is off regardless of the host compiler.
  rt::CompiledProgram NoNative(*P, /*AllowSpecialize=*/true,
                               /*AllowNative=*/false);
  EXPECT_FALSE(NoNative.tierAvailable(rt::ExecTier::Native));
  EXPECT_EQ(NoNative.tier(), rt::ExecTier::LoopVM);

  // GRASSP_JIT_DISABLE: the env kill-switch yields no kernel even with
  // a compiler present, and tier selection falls back cleanly.
  ::setenv("GRASSP_JIT_DISABLE", "1", 1);
  rt::CompiledProgram Disabled(*P);
  ::unsetenv("GRASSP_JIT_DISABLE");
  EXPECT_FALSE(Disabled.tierAvailable(rt::ExecTier::Native));
  EXPECT_EQ(Disabled.tier(), rt::ExecTier::LoopVM);

  // Both ablated programs still run (loop VM) and agree with the
  // interpreter.
  std::vector<int64_t> Data = rt::generateWorkload(*P, 64, 7);
  std::vector<rt::SegmentView> Views = {{Data.data(), Data.size()}};
  EXPECT_EQ(NoNative.runSerial(Views), lang::runSerial(*P, Data));
  EXPECT_EQ(Disabled.runSerial(Views), lang::runSerial(*P, Data));
}

TEST(JitBackend, ShellQuoteAndWaitStatusHelpers) {
  EXPECT_EQ(jit::shellQuote("plain"), "'plain'");
  EXPECT_EQ(jit::shellQuote("a b"), "'a b'");
  EXPECT_EQ(jit::shellQuote("a'b"), "'a'\\''b'");
  EXPECT_FALSE(waitStatusOk(-1));
  EXPECT_EQ(describeWaitStatus(-1), "could not run (system() failed)");
  // A real shell round-trip: quoting must survive metacharacters.
  std::string Path = ::testing::TempDir() + "grassp jit $weird'name";
  std::string Cmd = "touch " + jit::shellQuote(Path);
  int Rc = std::system(Cmd.c_str());
  EXPECT_TRUE(waitStatusOk(Rc)) << describeWaitStatus(Rc);
  EXPECT_EQ(std::remove(Path.c_str()), 0);
}

} // namespace
