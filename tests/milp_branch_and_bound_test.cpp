#include "milp/branch_and_bound.hpp"

#include <gtest/gtest.h>

namespace ww::milp {
namespace {

TEST(BranchAndBound, KnapsackForcesBranching) {
  // max 8a + 11b + 6c, weights 5,7,4, capacity 9.  LP relaxation is
  // fractional (a = 1, b = 4/7, value ~14.29); integer optimum is
  // {a, c} with value 14.
  Model m;
  const int a = m.add_binary(-8.0);
  const int b = m.add_binary(-11.0);
  const int c = m.add_binary(-6.0);
  (void)m.add_constraint({{a, 5.0}, {b, 7.0}, {c, 4.0}},
                         Sense::LessEqual, 9.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -14.0, 1e-8);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(a)], 1.0, 1e-6);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(b)], 0.0, 1e-6);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(c)], 1.0, 1e-6);
  EXPECT_GE(sol.nodes_explored, 2);  // relaxation is fractional here
}

TEST(BranchAndBound, PureLpPassthrough) {
  Model m;
  (void)m.add_continuous(0.0, 4.0, -1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);
}

TEST(BranchAndBound, GeneralIntegerVariable) {
  // min -x, x integer in [0, 10], 2x <= 9  =>  x = 4 (LP gives 4.5).
  Model m;
  const int x = m.add_variable(0.0, 10.0, VarType::Integer, -1.0);
  (void)m.add_constraint({{x, 2.0}}, Sense::LessEqual, 9.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 4.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 with x binary: LP feasible, no integer point.
  Model m;
  const int x = m.add_binary(1.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 0.4);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 0.6);
  const Solution sol = solve(m);
  EXPECT_EQ(sol.status, Status::Infeasible);
  EXPECT_FALSE(sol.has_incumbent);
}

TEST(BranchAndBound, AssignmentProblemOptimal) {
  // 3x3 assignment, cost matrix with known optimum 1+2+3 = 6 on diagonal
  // after permutation.
  const double cost[3][3] = {{1, 9, 9}, {9, 2, 9}, {9, 9, 3}};
  Model m;
  int v[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) v[i][j] = m.add_binary(cost[i][j]);
  for (int i = 0; i < 3; ++i)
    (void)m.add_constraint({{v[i][0], 1.0}, {v[i][1], 1.0}, {v[i][2], 1.0}},
                           Sense::Equal, 1.0);
  for (int j = 0; j < 3; ++j)
    (void)m.add_constraint({{v[0][j], 1.0}, {v[1][j], 1.0}, {v[2][j], 1.0}},
                           Sense::Equal, 1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 6.0, 1e-7);
}

TEST(BranchAndBound, CapacitatedAssignmentLikeWaterWise) {
  // 4 jobs, 2 regions, region capacity 2 each; region 0 cheaper for all:
  // optimum places 2 jobs in each region picking the cheapest split.
  Model m;
  const double cost[4][2] = {{1, 2}, {1, 3}, {1, 1.5}, {1, 5}};
  int x[4][2];
  for (int j = 0; j < 4; ++j)
    for (int r = 0; r < 2; ++r) x[j][r] = m.add_binary(cost[j][r]);
  for (int j = 0; j < 4; ++j)
    (void)m.add_constraint({{x[j][0], 1.0}, {x[j][1], 1.0}},
                           Sense::Equal, 1.0);
  for (int r = 0; r < 2; ++r)
    (void)m.add_constraint(
        {{x[0][r], 1.0}, {x[1][r], 1.0}, {x[2][r], 1.0}, {x[3][r], 1.0}},
        Sense::LessEqual, 2.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  // Cheapest: jobs with the largest regret (1 vs 5, 1 vs 3) go to region 0;
  // jobs (1 vs 2), (1 vs 1.5) to region 1 => 1 + 1 + 2 + 1.5 = 5.5.
  EXPECT_NEAR(sol.objective, 5.5, 1e-7);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // min -y - 0.5 x with y binary, x continuous <= 3.7, x <= 10 y
  // => y = 1, x = 3.7, obj -2.85.
  Model m;
  const int y = m.add_binary(-1.0);
  const int x = m.add_continuous(0.0, 3.7, -0.5);
  (void)m.add_constraint({{x, 1.0}, {y, -10.0}}, Sense::LessEqual, 0.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -2.85, 1e-8);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(x)], 3.7, 1e-7);
}

TEST(BranchAndBound, NodeLimitReturnsIncumbentWhenFound) {
  // A loose knapsack where diving finds an incumbent immediately.
  Model m;
  std::vector<int> vars;
  std::vector<Term> row;
  for (int i = 0; i < 12; ++i) {
    const int v = m.add_binary(-(1.0 + 0.1 * i));
    vars.push_back(v);
    row.push_back({v, 1.0 + 0.07 * (i % 5)});
  }
  (void)m.add_constraint(row, Sense::LessEqual, 6.0);
  SolverOptions opts;
  opts.max_nodes = 3;  // force an early stop
  const Solution sol = solve(m, opts);
  if (sol.status == Status::NodeLimit) {
    EXPECT_LE(sol.best_bound, sol.objective + 1e-9);
  } else {
    EXPECT_EQ(sol.status, Status::Optimal);
  }
}

TEST(BranchAndBound, LargerKnapsackMatchesDp) {
  // 0/1 knapsack solved independently with dynamic programming.
  const std::vector<double> value = {12, 7, 9, 15, 5, 11, 3, 8, 14, 6};
  const std::vector<int> weight = {4, 2, 3, 5, 1, 4, 1, 3, 5, 2};
  const int cap = 12;
  // DP over integer weights.
  std::vector<double> dp(static_cast<std::size_t>(cap) + 1, 0.0);
  for (std::size_t i = 0; i < value.size(); ++i)
    for (int w = cap; w >= weight[i]; --w)
      dp[static_cast<std::size_t>(w)] =
          std::max(dp[static_cast<std::size_t>(w)],
                   dp[static_cast<std::size_t>(w - weight[i])] + value[i]);
  const double best = dp[static_cast<std::size_t>(cap)];

  Model m;
  std::vector<Term> row;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const int v = m.add_binary(-value[i]);
    row.push_back({v, static_cast<double>(weight[i])});
  }
  (void)m.add_constraint(row, Sense::LessEqual, static_cast<double>(cap));
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(-sol.objective, best, 1e-7);
}

TEST(StatusToString, AllCovered) {
  EXPECT_EQ(to_string(Status::Optimal), "optimal");
  EXPECT_EQ(to_string(Status::Infeasible), "infeasible");
  EXPECT_EQ(to_string(Status::Unbounded), "unbounded");
  EXPECT_EQ(to_string(Status::IterationLimit), "iteration-limit");
  EXPECT_EQ(to_string(Status::NodeLimit), "node-limit");
}

}  // namespace
}  // namespace ww::milp
