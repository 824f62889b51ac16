#include "milp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "milp/branch_and_bound.hpp"

namespace ww::milp {
namespace {

Solution lp_solve(const Model& m) {
  SimplexSolver s(m);
  return s.solve();
}

TEST(Simplex, TextbookTwoVariable) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), obj 36.
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, -3.0);
  const int y = m.add_continuous(0.0, kInfinity, -5.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 4.0);
  (void)m.add_constraint({{y, 2.0}}, Sense::LessEqual, 12.0);
  (void)m.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::LessEqual, 18.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-8);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-8);
  EXPECT_NEAR(sol.values[1], 6.0, 1e-8);
}

TEST(Simplex, EqualityConstraintNeedsPhase1) {
  // min x + 2y s.t. x + y = 10, x <= 6  => x=6, y=4, obj 14.
  Model m;
  const int x = m.add_continuous(0.0, 6.0, 1.0);
  const int y = m.add_continuous(0.0, kInfinity, 2.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 10.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 14.0, 1e-8);
  EXPECT_NEAR(sol.values[0], 6.0, 1e-8);
  EXPECT_NEAR(sol.values[1], 4.0, 1e-8);
}

TEST(Simplex, GreaterEqualConstraints) {
  // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6  => (3, 1), obj 9.
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, 2.0);
  const int y = m.add_continuous(0.0, kInfinity, 3.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 4.0);
  (void)m.add_constraint({{x, 1.0}, {y, 3.0}}, Sense::GreaterEqual, 6.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 9.0, 1e-8);
  EXPECT_NEAR(sol.values[0], 3.0, 1e-8);
  EXPECT_NEAR(sol.values[1], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  const int x = m.add_continuous(0.0, 1.0, 1.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 2.0);
  EXPECT_EQ(lp_solve(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsContradictoryRows) {
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, 0.0);
  const int y = m.add_continuous(0.0, kInfinity, 0.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 3.0);
  EXPECT_EQ(lp_solve(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, -1.0);
  const int y = m.add_continuous(0.0, kInfinity, 0.0);
  (void)m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::LessEqual, 1.0);
  EXPECT_EQ(lp_solve(m).status, Status::Unbounded);
}

TEST(Simplex, BoundedVariablesOnly) {
  // No rows: min -x - 2y with x in [1,3], y in [0,5] => (3,5), obj -13.
  Model m;
  (void)m.add_continuous(1.0, 3.0, -1.0);
  (void)m.add_continuous(0.0, 5.0, -2.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -13.0, 1e-9);
}

TEST(Simplex, NoRowsUnboundedDetected) {
  Model m;
  (void)m.add_continuous(0.0, kInfinity, -1.0);
  EXPECT_EQ(lp_solve(m).status, Status::Unbounded);
}

TEST(Simplex, UpperBoundedVariableBindsFirst) {
  // min -x s.t. x <= 10 row, but x's own bound is 3 => x = 3.
  Model m;
  const int x = m.add_continuous(0.0, 3.0, -1.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 10.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 3.0, 1e-9);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with x in [-5, 5], y in [-2, 2], x + y >= -4  => obj -4... the
  // optimum sits on the row: x = -2 to -5 range; minimum of x+y subject to
  // x+y >= -4 is exactly -4.
  Model m;
  const int x = m.add_continuous(-5.0, 5.0, 1.0);
  const int y = m.add_continuous(-2.0, 2.0, 1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, -4.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);
}

TEST(Simplex, FreeVariable) {
  // min x with x free, x >= -7 via row  => x = -7.
  Model m;
  const int x = m.add_continuous(-kInfinity, kInfinity, 1.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::GreaterEqual, -7.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], -7.0, 1e-9);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Multiple redundant constraints through one vertex (classic cycling bait).
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, -1.0);
  const int y = m.add_continuous(0.0, kInfinity, -1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::LessEqual, 1.0);
  (void)m.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::LessEqual, 2.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 1.0);
  (void)m.add_constraint({{y, 1.0}}, Sense::LessEqual, 1.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -1.0, 1e-8);
}

TEST(Simplex, TransportationProblemIsIntegral) {
  // 2 supplies x 3 demands; LP relaxation of a transportation problem has
  // integral vertices, so the simplex answer should be integer-valued.
  Model m;
  const double cost[2][3] = {{4, 6, 9}, {5, 3, 8}};
  int v[2][3];
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j)
      v[i][j] = m.add_continuous(0.0, kInfinity, cost[i][j]);
  const double supply[2] = {10, 15};
  const double demand[3] = {7, 9, 9};
  for (int i = 0; i < 2; ++i)
    (void)m.add_constraint({{v[i][0], 1.0}, {v[i][1], 1.0}, {v[i][2], 1.0}},
                           Sense::LessEqual, supply[i]);
  for (int j = 0; j < 3; ++j)
    (void)m.add_constraint({{v[0][j], 1.0}, {v[1][j], 1.0}},
                           Sense::GreaterEqual, demand[j]);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  for (const double val : sol.values)
    EXPECT_NEAR(val, std::round(val), 1e-7);
  // Optimum: s1->d1 7@4, s2->d2 9@3, d3 split 3@9 (s1) + 6@8 (s2) = 130.
  EXPECT_NEAR(sol.objective, 130.0, 1e-6);
}

TEST(Simplex, SolveWithBoundsOverride) {
  Model m;
  const int x = m.add_continuous(0.0, 10.0, -1.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 8.0);
  SimplexSolver s(m);
  const Solution base = s.solve();
  ASSERT_EQ(base.status, Status::Optimal);
  EXPECT_NEAR(base.values[0], 8.0, 1e-9);
  const Solution tight = s.solve_with_bounds({0.0}, {3.0});
  ASSERT_EQ(tight.status, Status::Optimal);
  EXPECT_NEAR(tight.values[0], 3.0, 1e-9);
  const Solution conflict = s.solve_with_bounds({5.0}, {4.0});
  EXPECT_EQ(conflict.status, Status::Infeasible);
}

TEST(Simplex, RepeatedSolvesAreIndependent) {
  Model m;
  const int x = m.add_continuous(0.0, 5.0, -2.0);
  const int y = m.add_continuous(0.0, 5.0, -1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::LessEqual, 6.0);
  SimplexSolver s(m);
  const Solution first = s.solve();
  const Solution second = s.solve();
  ASSERT_EQ(first.status, Status::Optimal);
  ASSERT_EQ(second.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(first.objective, second.objective);
  EXPECT_EQ(first.values, second.values);
}

TEST(Simplex, FixedVariableViaEqualBounds) {
  Model m;
  const int x = m.add_continuous(2.0, 2.0, 1.0);
  const int y = m.add_continuous(0.0, kInfinity, 1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 5.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 3.0, 1e-9);
}

TEST(Simplex, LargerDenseProblem) {
  // min sum x_i s.t. for each of 40 rows: x_i + x_{i+1} >= 1 (ring).
  Model m;
  const int n = 40;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i)
    vars.push_back(m.add_continuous(0.0, 1.0, 1.0));
  for (int i = 0; i < n; ++i)
    (void)m.add_constraint(
        {{vars[static_cast<std::size_t>(i)], 1.0},
         {vars[static_cast<std::size_t>((i + 1) % n)], 1.0}},
        Sense::GreaterEqual, 1.0);
  const Solution sol = lp_solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, n / 2.0, 1e-7);  // all at 0.5
}

}  // namespace
}  // namespace ww::milp
