//===- tests/ir_matchers_test.cpp - Step-shape analysis -------------------==//

#include "ir/Matchers.h"

#include <gtest/gtest.h>

using namespace grassp::ir;

namespace {

ExprRef iv(const char *N) { return var(N, TypeKind::Int); }
ExprRef in() { return iv("in"); }

TEST(StepShape, CountsValueAndCondVars) {
  // cnt' = ite(in == 2 && q == 1, cnt + 1, cnt)
  ExprRef E = ite(land(eq(in(), constInt(2)), eq(iv("q"), constInt(1))),
                  add(iv("cnt"), constInt(1)), iv("cnt"));
  StepShape S = analyzeStepShape(E);
  EXPECT_TRUE(S.ValueHasArith);
  EXPECT_TRUE(S.ValueVars.count("cnt"));
  EXPECT_TRUE(S.CondVars.count("in"));
  EXPECT_TRUE(S.CondVars.count("q"));
  EXPECT_FALSE(S.ValueVars.count("q"));
}

TEST(StepShape, FiniteControlShape) {
  // q' = ite(in == 1, 1, ite(in == 2, 0, q)): no arithmetic at values.
  ExprRef E = ite(eq(in(), constInt(1)), constInt(1),
                  ite(eq(in(), constInt(2)), constInt(0), iv("q")));
  StepShape S = analyzeStepShape(E);
  EXPECT_FALSE(S.ValueHasArith);
  EXPECT_EQ(S.ValueVars.size(), 1u);
  EXPECT_TRUE(S.ValueVars.count("q"));
}

TEST(StepShape, BooleanStructureIsSteeringOnly) {
  // seen' = seen || (in == 1): boolean structure yields a two-valued
  // result, so its variables only steer (CondVars) and the field remains
  // finite-control eligible (no arithmetic, no value vars).
  ExprRef E = lor(var("seen", TypeKind::Bool), eq(in(), constInt(1)));
  StepShape S = analyzeStepShape(E);
  EXPECT_FALSE(S.ValueHasArith);
  EXPECT_TRUE(S.ValueVars.empty());
  EXPECT_TRUE(S.CondVars.count("seen"));
  EXPECT_TRUE(S.CondVars.count("in"));
}

} // namespace
