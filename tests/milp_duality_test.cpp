// Dual values and reduced costs: textbook checks plus the LP identity
//   c^T x = y^T b + sum_j d_j x_j + sum_i d_slack_i slack_i
// (d_slack_i = -y_i since slack columns are unit columns with zero cost),
// and optimality sign conditions on randomized feasible programs.
#include <gtest/gtest.h>

#include <cmath>

#include "milp/simplex.hpp"
#include "util/rng.hpp"

namespace ww::milp {
namespace {

TEST(Duality, TextbookDuals) {
  // min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
  // Optimal (2, 6); binding rows 2 and 3 with duals (0, -3/2, -1).
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, -3.0);
  const int y = m.add_continuous(0.0, kInfinity, -5.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 4.0);
  (void)m.add_constraint({{y, 2.0}}, Sense::LessEqual, 12.0);
  (void)m.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::LessEqual, 18.0);
  SimplexSolver s(m);
  const Solution sol = s.solve();
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_EQ(sol.duals.size(), 3u);
  EXPECT_NEAR(sol.duals[0], 0.0, 1e-8);
  EXPECT_NEAR(sol.duals[1], -1.5, 1e-8);
  EXPECT_NEAR(sol.duals[2], -1.0, 1e-8);
  // Basic structural variables have zero reduced cost.
  EXPECT_NEAR(sol.reduced_costs[0], 0.0, 1e-8);
  EXPECT_NEAR(sol.reduced_costs[1], 0.0, 1e-8);
  // Strong duality for this (lb = 0) program: obj = y^T b.
  EXPECT_NEAR(sol.objective, -1.5 * 12.0 - 1.0 * 18.0, 1e-8);
}

TEST(Duality, ReducedCostSignsAtBounds) {
  // min x1 + 2 x2 - x3, all in [0, 2], x1 + x2 + x3 >= 1.
  Model m;
  (void)m.add_continuous(0.0, 2.0, 1.0);
  (void)m.add_continuous(0.0, 2.0, 2.0);
  (void)m.add_continuous(0.0, 2.0, -1.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}},
                         Sense::GreaterEqual, 1.0);
  SimplexSolver s(m);
  const Solution sol = s.solve();
  ASSERT_EQ(sol.status, Status::Optimal);
  // x3 = 2 (at upper) with negative reduced cost; x1, x2 at lower with
  // non-negative reduced costs.
  EXPECT_NEAR(sol.values[2], 2.0, 1e-9);
  EXPECT_LE(sol.reduced_costs[2], 1e-9);
  EXPECT_GE(sol.reduced_costs[0], -1e-9);
  EXPECT_GE(sol.reduced_costs[1], -1e-9);
}

class DualityProperty : public ::testing::TestWithParam<int> {};

TEST_P(DualityProperty, LagrangianIdentityAndSigns) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 11);
  const int n = static_cast<int>(rng.uniform_int(2, 7));
  const int rows = static_cast<int>(rng.uniform_int(1, 5));

  Model m;
  std::vector<double> witness;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 4.0);
    (void)m.add_continuous(lo, hi, rng.uniform(-2.0, 2.0));
    witness.push_back(lo + 0.5 * (hi - lo));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.25)) continue;
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({j, c});
      lhs += c * witness[static_cast<std::size_t>(j)];
    }
    if (terms.empty()) terms.push_back({0, 1.0}), lhs = witness[0];
    (void)m.add_constraint(std::move(terms), Sense::LessEqual,
                           lhs + rng.uniform(0.05, 2.0));
  }

  SimplexSolver solver(m);
  const Solution sol = solver.solve();
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_EQ(sol.duals.size(), static_cast<std::size_t>(m.num_constraints()));
  ASSERT_EQ(sol.reduced_costs.size(), static_cast<std::size_t>(n));

  // Lagrangian identity: c.x = y.b + sum_j d_j x_j + sum_i (-y_i) slack_i.
  double rhs_total = 0.0;
  for (int i = 0; i < m.num_constraints(); ++i) {
    const Constraint& c = m.constraint(i);
    double activity = 0.0;
    for (const Term& t : c.terms)
      activity += t.coeff * sol.values[static_cast<std::size_t>(t.var)];
    const double slack = c.rhs - activity;  // row + slack = rhs
    rhs_total += sol.duals[static_cast<std::size_t>(i)] * c.rhs;
    rhs_total += -sol.duals[static_cast<std::size_t>(i)] * slack;
  }
  for (int j = 0; j < n; ++j)
    rhs_total +=
        sol.reduced_costs[static_cast<std::size_t>(j)] * sol.values[static_cast<std::size_t>(j)];
  EXPECT_NEAR(sol.objective, rhs_total, 1e-6);

  // Sign conditions: d_j >= 0 when x_j at lower bound, <= 0 at upper, ~0 in
  // the interior.  LE rows require y_i <= 0 in min form (slack at lower
  // bound 0 must not price in).
  for (int j = 0; j < n; ++j) {
    const auto& v = m.variable(j);
    const double x = sol.values[static_cast<std::size_t>(j)];
    const double d = sol.reduced_costs[static_cast<std::size_t>(j)];
    if (x > v.lower + 1e-7 && x < v.upper - 1e-7) {
      EXPECT_NEAR(d, 0.0, 1e-6);
    }
    if (std::abs(x - v.lower) <= 1e-9 && std::abs(x - v.upper) > 1e-9) {
      EXPECT_GE(d, -1e-6);
    }
    if (std::abs(x - v.upper) <= 1e-9 && std::abs(x - v.lower) > 1e-9) {
      EXPECT_LE(d, 1e-6);
    }
  }
  for (const double y : sol.duals) EXPECT_LE(y, 1e-6);  // all rows are LE
}

INSTANTIATE_TEST_SUITE_P(Sweep, DualityProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace ww::milp
