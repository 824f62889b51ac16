#include "milp/model.hpp"

#include <gtest/gtest.h>

namespace ww::milp {
namespace {

TEST(Model, AddVariableBasics) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0, 2.0);
  const int y = m.add_binary("y", -1.0);
  EXPECT_EQ(x, 0);
  EXPECT_EQ(y, 1);
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.variable(x).objective, 2.0);
  EXPECT_EQ(m.variable(y).lower, 0.0);
  EXPECT_EQ(m.variable(y).upper, 1.0);
  EXPECT_EQ(m.variable(y).type, VarType::Binary);
}

TEST(Model, BinaryForcesBounds) {
  Model m;
  const int b = m.add_variable("b", -5.0, 5.0, VarType::Binary);
  EXPECT_EQ(m.variable(b).lower, 0.0);
  EXPECT_EQ(m.variable(b).upper, 1.0);
}

TEST(Model, RejectsInvertedBounds) {
  Model m;
  EXPECT_THROW(m.add_continuous("bad", 2.0, 1.0), std::invalid_argument);
}

TEST(Model, ObjectiveManipulation) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 1.0);
  m.set_objective_coefficient(x, 3.0);
  m.add_objective_coefficient(x, 1.5);
  EXPECT_DOUBLE_EQ(m.variable(x).objective, 4.5);
}

TEST(Model, ConstraintMergesDuplicateTerms) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 1.0);
  const int y = m.add_continuous("y", 0.0, 1.0);
  const int c =
      m.add_constraint("c", {{x, 1.0}, {x, 2.0}, {y, -1.0}, {y, 1.0}},
                       Sense::LessEqual, 4.0);
  const auto& row = m.constraint(c);
  ASSERT_EQ(row.terms.size(), 1u);  // y cancelled out, x merged
  EXPECT_EQ(row.terms[0].var, x);
  EXPECT_DOUBLE_EQ(row.terms[0].coeff, 3.0);

  // Each variable's terms are summed in input order: 1e16 + 1 rounds back to
  // 1e16, so x cancels to an exact zero and is dropped.  Summing x's terms
  // in any other order (an unstable sort) would leave x with 1.
  const int c2 = m.add_constraint(
      "c2", {{x, 1e16}, {y, 2.0}, {x, 1.0}, {x, -1e16}}, Sense::LessEqual, 4.0);
  const auto& row2 = m.constraint(c2);
  ASSERT_EQ(row2.terms.size(), 1u);
  EXPECT_EQ(row2.terms[0].var, y);
  EXPECT_EQ(row2.terms[0].coeff, 2.0);
}

TEST(Model, ConstraintRejectsUnknownVariable) {
  Model m;
  (void)m.add_continuous("x", 0.0, 1.0);
  EXPECT_THROW(m.add_constraint("c", {{5, 1.0}}, Sense::Equal, 0.0),
               std::out_of_range);
}

TEST(Model, HasIntegerVariables) {
  Model lp;
  (void)lp.add_continuous("x", 0.0, 1.0);
  EXPECT_FALSE(lp.has_integer_variables());
  Model mip;
  (void)mip.add_binary("b");
  EXPECT_TRUE(mip.has_integer_variables());
}

TEST(Model, ObjectiveValue) {
  Model m;
  (void)m.add_continuous("x", 0.0, 10.0, 2.0);
  (void)m.add_continuous("y", 0.0, 10.0, -1.0);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
}

TEST(Model, MaxViolationFeasiblePoint) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0);
  (void)m.add_constraint("c", {{x, 1.0}}, Sense::LessEqual, 5.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({7.0}), 2.0);   // row violated
  EXPECT_DOUBLE_EQ(m.max_violation({-2.0}), 2.0);  // bound violated
}

TEST(Model, MaxViolationSenses) {
  Model m;
  const int x = m.add_continuous("x", -10.0, 10.0);
  (void)m.add_constraint("ge", {{x, 1.0}}, Sense::GreaterEqual, 2.0);
  (void)m.add_constraint("eq", {{x, 1.0}}, Sense::Equal, 3.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({1.0}), 2.0);  // eq off by 2, ge off by 1
}

TEST(Model, UnnamedEntitiesSynthesizeNames) {
  // The unnamed overloads store no string (the model-build fast path);
  // names come back synthesized on demand, while stored names round-trip.
  Model m;
  const int a = m.add_binary();
  const int b = m.add_continuous(0.0, 1.0);
  const int c = m.add_variable("named", 0.0, 2.0, VarType::Integer, 1.0);
  const int r0 = m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::LessEqual, 1.5);
  const int r1 = m.add_constraint("row", {{c, 1.0}}, Sense::Equal, 1.0);
  EXPECT_TRUE(m.variable(a).name.empty());
  EXPECT_EQ(m.variable_name(a), "x0");
  EXPECT_EQ(m.variable_name(b), "x1");
  EXPECT_EQ(m.variable_name(c), "named");
  EXPECT_EQ(m.constraint_name(r0), "c0");
  EXPECT_EQ(m.constraint_name(r1), "row");
  // Unnamed entities behave identically to named ones in the solver path.
  EXPECT_EQ(m.num_variables(), 3);
  EXPECT_EQ(m.num_constraints(), 2);
}

TEST(Model, ReservePreservesContents) {
  Model m;
  m.reserve(100, 50);
  const int x = m.add_binary(2.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 1.0);
  EXPECT_EQ(m.num_variables(), 1);
  EXPECT_EQ(m.num_constraints(), 1);
  EXPECT_DOUBLE_EQ(m.variable(x).objective, 2.0);
}

}  // namespace
}  // namespace ww::milp
