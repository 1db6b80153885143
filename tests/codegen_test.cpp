//===- tests/codegen_test.cpp - Generated C++ translations -----------------=//
//
// Unit tests for expression rendering plus integration tests that
// compile the emitted translations with the host compiler ($CXX, else
// g++) under UBSan and run them: the generated main self-verifies serial
// vs parallel, and any undefined behaviour aborts it.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"
#include "codegen/ExprCpp.h"
#include "ir/Arith.h"
#include "jit/NativeKernel.h"
#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "synth/Grassp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace grassp;
using namespace grassp::ir;
using namespace grassp::codegen;

namespace {

TEST(ExprCpp, Rendering) {
  ExprRef E = ite(eq(var("in", TypeKind::Int), constInt(2)),
                  add(var("res", TypeKind::Int), constInt(1)),
                  var("res", TypeKind::Int));
  std::map<std::string, std::string> M{{"in", "x"}, {"res", "s.res"}};
  EXPECT_EQ(exprToCpp(E, M),
            "((x == INT64_C(2)) ? g_add(s.res, INT64_C(1)) : s.res)");
}

TEST(ExprCpp, ArithmeticGoesThroughWrappingHelpers) {
  ExprRef A = var("a", TypeKind::Int);
  EXPECT_EQ(exprToCpp(sub(mul(A, A), neg(A)), {}),
            "g_sub(g_mul(a, a), g_neg(a))");
  EXPECT_EQ(exprToCpp(constInt(INT64_MIN), {}), "INT64_MIN");
}

TEST(ExprCpp, HelpersForDivModMinMax) {
  ExprRef E = smax(intDiv(var("a", TypeKind::Int), constInt(2)),
                   intMod(var("a", TypeKind::Int), constInt(3)));
  std::string S = exprToCpp(E, {});
  EXPECT_NE(S.find("g_imax"), std::string::npos);
  EXPECT_NE(S.find("g_ediv"), std::string::npos);
  EXPECT_NE(S.find("g_emod"), std::string::npos);
}

// Compiles Source with the host compiler under UBSan (any report
// aborts); returns the binary's path, or "" when the compile failed.
std::string compile(const std::string &Source, const std::string &Tag) {
  std::string Base = std::string(::testing::TempDir()) + "/gen_" + Tag;
  {
    std::ofstream Out(Base + ".cpp");
    Out << Source;
  }
  std::string Compile = jit::shellQuote(jit::hostCxx()) +
                        " -std=c++17 -O1 -fsanitize=undefined"
                        " -fno-sanitize-recover=undefined -o " +
                        Base + " " + Base + ".cpp -lpthread";
  return std::system(Compile.c_str()) == 0 ? Base : "";
}

// Runs \p Bin with \p Args, its stdout into \p Out; returns the exit
// status (the generated mains return 0 on serial==parallel).
int run(const std::string &Bin, const std::string &Args, std::string &Out) {
  std::string Run = Bin + " " + Args + " > " + Bin + ".out 2>&1";
  int Rc = std::system(Run.c_str());
  std::ifstream In(Bin + ".out");
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return Rc;
}

int compileAndRun(const std::string &Source, const std::string &Tag) {
  std::string Bin = compile(Source, Tag), Out;
  return Bin.empty() ? -1 : run(Bin, "", Out);
}

// The preamble's helpers compute exactly what ir/Arith.h computes, on
// the operands where a plain int64 operator overflows or traps.
TEST(ExprCpp, PreambleArithmeticMatchesIrArith) {
  const std::vector<int64_t> Vals = {INT64_MIN, INT64_MIN + 1, -7, -2, -1,
                                     0,         1,             2,  7,
                                     INT64_MAX - 1, INT64_MAX};
  std::ostringstream Src;
  Src << cppPreamble() << "int main() {\n"
      << "  static const i64 v[] = {INT64_MIN";
  for (size_t I = 1; I != Vals.size(); ++I)
    Src << ", INT64_C(" << Vals[I] << ")";
  Src << "};\n"
      << "  for (i64 a : v) for (i64 b : v)\n"
      << "    std::printf(\"%lld %lld %lld %lld %lld %lld\\n\",\n"
      << "      (long long)g_add(a, b), (long long)g_sub(a, b),\n"
      << "      (long long)g_mul(a, b), (long long)g_neg(a),\n"
      << "      (long long)g_ediv(a, b), (long long)g_emod(a, b));\n"
      << "}\n";
  std::string Bin = compile(Src.str(), "arith"), Out;
  ASSERT_FALSE(Bin.empty());
  ASSERT_EQ(run(Bin, "", Out), 0) << Out;
  std::istringstream In(Out);
  for (int64_t A : Vals)
    for (int64_t B : Vals) {
      long long Add, Sub, Mul, Neg, Div, Mod;
      ASSERT_TRUE(In >> Add >> Sub >> Mul >> Neg >> Div >> Mod);
      EXPECT_EQ(Add, ir::wrapAdd(A, B)) << A << " + " << B;
      EXPECT_EQ(Sub, ir::wrapSub(A, B)) << A << " - " << B;
      EXPECT_EQ(Mul, ir::wrapMul(A, B)) << A << " * " << B;
      EXPECT_EQ(Neg, ir::wrapNeg(A)) << "-" << A;
      EXPECT_EQ(Div, ir::floorDiv(A, B)) << A << " div " << B;
      EXPECT_EQ(Mod, ir::euclidMod(A, B)) << A << " mod " << B;
    }
}

class Translation : public ::testing::TestWithParam<std::string> {};

TEST_P(Translation, CompilesAndSelfVerifies) {
  const lang::SerialProgram *P = lang::findBenchmark(GetParam());
  ASSERT_NE(P, nullptr);
  synth::SynthesisResult R = synth::synthesize(*P);
  ASSERT_TRUE(R.Success);
  codegen::CppEmitOptions Opts;
  Opts.NumElements = 100000;
  std::string Src = codegen::emitStandaloneCpp(*P, R.Plan, Opts);
  ASSERT_FALSE(Src.empty());
  EXPECT_EQ(compileAndRun(Src, P->Name), 0) << Src.substr(0, 600);
}

// One representative per other scenario keeps the compile time of this
// suite reasonable; every B4 winner is covered, because each renders its
// own PlanExecutor terms.
INSTANTIATE_TEST_SUITE_P(Scenarios, Translation,
                         ::testing::Values("sum",            // B1
                                           "second_max",     // B2
                                           "is_sorted",      // B3
                                           "count_run1",     // B4
                                           "count_102",      // B4
                                           "count_123",      // B4
                                           "count_10203",    // B4
                                           "max_dist_ones",  // B4 max-acc
                                           "max_sum_zeros",  // B4 + wraps
                                           "count_distinct"),// bag
                         [](const auto &Info) { return Info.param; });

// Workloads whose folds wrap past INT64_MAX: the translation must wrap
// like the serial fold (ir/Arith.h), not overflow.
TEST(EmittedCpp, WrapsLikeTheSerialFold) {
  const std::vector<std::vector<int64_t>> Files = {
      {INT64_MAX, 1}, {INT64_MAX, 1, 0, INT64_MAX, 2}};
  for (const char *Name : {"sum", "max_sum_zeros"}) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    ASSERT_NE(P, nullptr);
    synth::SynthesisResult R = synth::synthesize(*P);
    ASSERT_TRUE(R.Success);
    codegen::CppEmitOptions Opts;
    Opts.NumThreads = 2;
    std::string Bin = compile(codegen::emitStandaloneCpp(*P, R.Plan, Opts),
                              std::string("wrap_") + Name);
    ASSERT_FALSE(Bin.empty()) << Name;
    for (size_t F = 0; F != Files.size(); ++F) {
      std::string Path = Bin + "_" + std::to_string(F) + ".txt";
      {
        std::ofstream Out(Path);
        for (int64_t X : Files[F])
          Out << X << "\n";
      }
      std::string Out;
      ASSERT_EQ(run(Bin, Path, Out), 0) << Name << " on file " << F << ": "
                                        << Out;
      long long Serial = 0, Parallel = 0;
      ASSERT_EQ(std::sscanf(Out.c_str(), "serial=%lld parallel=%lld",
                            &Serial, &Parallel),
                2)
          << Out;
      int64_t Want = lang::runSerial(*P, Files[F]);
      EXPECT_EQ(Serial, Want) << Name << " on file " << F;
      EXPECT_EQ(Parallel, Want) << Name << " on file " << F;
    }
  }
}

TEST(MapReduceCodegen, StreamingPipelineComputesSum) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  synth::SynthesisResult R = synth::synthesize(*P);
  ASSERT_TRUE(R.Success);
  std::string Src = codegen::emitMapReduceCpp(*P, R.Plan);
  ASSERT_FALSE(Src.empty());

  std::string Base = compile(Src, "mr_sum");
  ASSERT_FALSE(Base.empty());
  // Two mappers over 1..100 and 101..200, one reducer: 20100.
  std::string Cmd = "( seq 1 100 | " + Base + " --map; seq 101 200 | " +
                    Base + " --map ) | " + Base + " --reduce > " + Base +
                    ".out";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
  std::ifstream In(Base + ".out");
  long long V = 0;
  In >> V;
  EXPECT_EQ(V, 20100);
}

TEST(MapReduceCodegen, RejectsPrefixPlans) {
  const lang::SerialProgram *P = lang::findBenchmark("is_sorted");
  synth::SynthesisResult R = synth::synthesize(*P);
  ASSERT_TRUE(R.Success);
  EXPECT_TRUE(codegen::emitMapReduceCpp(*P, R.Plan).empty());
}

} // namespace
