// Randomized property sweeps for the LP/MILP solver.
//
// For random feasible-by-construction programs: the solver must report
// Optimal, the returned point must satisfy all rows/bounds, and its objective
// must not exceed the objective of any sampled feasible point (optimality
// against Monte-Carlo witnesses).  Random assignment MILPs are checked
// against exhaustive enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "milp/branch_and_bound.hpp"
#include "milp/simplex.hpp"
#include "util/rng.hpp"

namespace ww::milp {
namespace {

class LpRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(LpRandomProperty, FeasibleByConstructionSolvesOptimal) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  const int rows = static_cast<int>(rng.uniform_int(1, 6));

  // A random interior point guarantees feasibility of all LE rows.
  std::vector<double> witness;
  Model m;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-3.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 6.0);
    (void)m.add_continuous(lo, hi, rng.uniform(-2.0, 2.0));
    witness.push_back(lo + 0.5 * (hi - lo));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) continue;
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({j, c});
      lhs += c * witness[static_cast<std::size_t>(j)];
    }
    if (terms.empty()) continue;
    (void)m.add_constraint(std::move(terms), Sense::LessEqual,
                           lhs + rng.uniform(0.1, 3.0));
  }

  SimplexSolver solver(m);
  const Solution sol = solver.solve();
  ASSERT_EQ(sol.status, Status::Optimal) << "seed param " << GetParam();
  EXPECT_LE(m.max_violation(sol.values), 1e-6);
  // The witness is feasible, so the optimum must be at least as good.
  EXPECT_LE(sol.objective, m.objective_value(witness) + 1e-7);

  // Monte-Carlo optimality witnesses.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> p;
    for (int j = 0; j < n; ++j) {
      const auto& v = m.variable(j);
      p.push_back(rng.uniform(v.lower, v.upper));
    }
    if (m.max_violation(p) <= 1e-9) {
      EXPECT_LE(sol.objective, m.objective_value(p) + 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LpRandomProperty, ::testing::Range(0, 40));

class AssignmentExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentExhaustive, MilpMatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  const int jobs = static_cast<int>(rng.uniform_int(2, 5));
  const int regions = static_cast<int>(rng.uniform_int(2, 3));
  std::vector<int> caps;
  int total_cap = 0;
  for (int r = 0; r < regions; ++r) {
    caps.push_back(static_cast<int>(rng.uniform_int(1, jobs)));
    total_cap += caps.back();
  }
  if (total_cap < jobs) caps[0] += jobs - total_cap;  // keep it feasible

  std::vector<std::vector<double>> cost(
      static_cast<std::size_t>(jobs),
      std::vector<double>(static_cast<std::size_t>(regions)));
  for (auto& row : cost)
    for (auto& c : row) c = rng.uniform(0.1, 5.0);

  // Brute force over region^jobs assignments.
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> assign(static_cast<std::size_t>(jobs), 0);
  const long combos = static_cast<long>(std::pow(regions, jobs));
  for (long code = 0; code < combos; ++code) {
    long c = code;
    std::vector<int> used(static_cast<std::size_t>(regions), 0);
    double total = 0.0;
    bool ok = true;
    for (int j = 0; j < jobs; ++j) {
      const int r = static_cast<int>(c % regions);
      c /= regions;
      if (++used[static_cast<std::size_t>(r)] >
          caps[static_cast<std::size_t>(r)]) {
        ok = false;
        break;
      }
      total += cost[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)];
    }
    if (ok) best = std::min(best, total);
  }

  Model m;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j)].push_back(m.add_binary(
          cost[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)]));
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 0; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)], 1.0});
    (void)m.add_constraint(std::move(t), Sense::Equal, 1.0);
  }
  for (int r = 0; r < regions; ++r) {
    std::vector<Term> t;
    for (int j = 0; j < jobs; ++j)
      t.push_back({x[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)], 1.0});
    (void)m.add_constraint(std::move(t), Sense::LessEqual,
                           static_cast<double>(caps[static_cast<std::size_t>(r)]));
  }
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, best, 1e-6) << "param " << GetParam();
  EXPECT_LE(m.max_violation(sol.values), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AssignmentExhaustive, ::testing::Range(0, 30));

class KnapsackExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackExhaustive, MilpMatchesEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 337 + 99);
  const int n = static_cast<int>(rng.uniform_int(3, 10));
  std::vector<double> value(static_cast<std::size_t>(n));
  std::vector<double> weight(static_cast<std::size_t>(n));
  double wtotal = 0.0;
  for (int i = 0; i < n; ++i) {
    value[static_cast<std::size_t>(i)] = rng.uniform(0.5, 10.0);
    weight[static_cast<std::size_t>(i)] = rng.uniform(0.5, 5.0);
    wtotal += weight[static_cast<std::size_t>(i)];
  }
  const double cap = wtotal * rng.uniform(0.3, 0.7);

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double v = 0.0;
    double w = 0.0;
    for (int i = 0; i < n; ++i)
      if (mask & (1 << i)) {
        v += value[static_cast<std::size_t>(i)];
        w += weight[static_cast<std::size_t>(i)];
      }
    if (w <= cap) best = std::max(best, v);
  }

  Model m;
  std::vector<Term> row;
  for (int i = 0; i < n; ++i) {
    const int x = m.add_binary(-value[static_cast<std::size_t>(i)]);
    row.push_back({x, weight[static_cast<std::size_t>(i)]});
  }
  (void)m.add_constraint(std::move(row), Sense::LessEqual, cap);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(-sol.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnapsackExhaustive, ::testing::Range(0, 30));

}  // namespace
}  // namespace ww::milp
