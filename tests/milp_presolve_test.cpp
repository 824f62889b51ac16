// Presolve/postsolve subsystem: round-trip equivalence against the raw
// solver across the instance corpus, targeted cases for each reduction
// (singleton row, fixed column, redundant row, implied-free column
// singleton, infeasibility detected in presolve, empty-problem fast path),
// LP dual recovery through postsolve, and seed-incumbent translation.
#include <gtest/gtest.h>

#include <cmath>

#include "milp/branch_and_bound.hpp"
#include "milp/instances.hpp"
#include "milp/presolve.hpp"
#include "util/rng.hpp"

namespace ww::milp {
namespace {

Solution solve_with(const Model& m, bool presolve,
                    const Solution* seed = nullptr) {
  SolverOptions o;
  o.presolve = presolve;
  return solve(m, o, seed);
}

// --- round-trip equivalence across the corpus ------------------------------

struct CorpusCase {
  const char* name;
  Model model;
};

std::vector<CorpusCase> corpus() {
  std::vector<CorpusCase> cs;
  cs.push_back({"shaped-32x4", waterwise_shaped_model(32, 4)});
  cs.push_back({"shaped-64x5", waterwise_shaped_model(64, 5)});
  cs.push_back({"hard-chunk-60x5", hard_chunk_model(60, 5, 0.4)});
  cs.push_back({"hard-chunk-120x6", hard_chunk_model(120, 6, 0.5, 23)});
  cs.push_back({"soft-chunk-30x4", soft_chunk_model(30, 4)});
  cs.push_back({"weak-relax-8x3", weak_relaxation_model(8, 3, 4.0)});
  cs.push_back({"weak-relax-12x3", weak_relaxation_model(12, 3, 5.0)});
  return cs;
}

TEST(Presolve, RoundTripEquivalenceAcrossCorpus) {
  for (auto& c : corpus()) {
    const Solution on = solve_with(c.model, true);
    const Solution off = solve_with(c.model, false);
    ASSERT_EQ(on.status, off.status) << c.name;
    ASSERT_EQ(on.status, Status::Optimal) << c.name;
    EXPECT_NEAR(on.objective, off.objective, 1e-7) << c.name;
    // The postsolved point must be feasible in the *original* model.
    EXPECT_LE(c.model.max_violation(on.values), 1e-6) << c.name;
    EXPECT_EQ(on.values.size(),
              static_cast<std::size_t>(c.model.num_variables()))
        << c.name;
  }
}

// --- targeted reductions (Presolve class level, below the facade's
// reduction-ratio gate) -----------------------------------------------------

TEST(Presolve, SingletonRowBecomesBound) {
  // min -x: the 2x <= 8 singleton row is the only thing keeping x off 10.
  Model m;
  (void)m.add_continuous(0.0, 10.0, -1.0);
  (void)m.add_constraint({{0, 2.0}}, Sense::LessEqual, 8.0);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::Reduced);
  EXPECT_EQ(pre.stats().rows_removed, 1);
  pre.build_reduced(m);
  ASSERT_EQ(pre.reduced().num_constraints(), 0);
  ASSERT_EQ(pre.reduced().num_variables(), 1);
  EXPECT_DOUBLE_EQ(pre.reduced().variable(0).upper, 4.0);

  const Solution sol = solve_with(m, true);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);
  EXPECT_NEAR(sol.values[0], 4.0, 1e-9);
  // The removed row supplied the binding bound, so it claims the reduced
  // cost as its dual: y = -1/2, rc_x = 0.
  ASSERT_EQ(sol.duals.size(), 1u);
  EXPECT_NEAR(sol.duals[0], -0.5, 1e-9);
  EXPECT_NEAR(sol.reduced_costs[0], 0.0, 1e-9);
}

TEST(Presolve, EqualitySingletonFixesVariable) {
  // 3x == 6 fixes x = 2; the other row then loses the term.
  Model m;
  (void)m.add_continuous(0.0, 10.0, 1.0);
  (void)m.add_continuous(0.0, 10.0, 1.0);
  (void)m.add_constraint({{0, 3.0}}, Sense::Equal, 6.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::GreaterEqual,
                         5.0);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::Reduced);
  EXPECT_EQ(pre.stats().cols_removed, 1);
  pre.build_reduced(m);
  // The link row survives as a singleton-derived bound on y (y >= 3), so
  // everything collapses to bounds.
  EXPECT_EQ(pre.reduced().num_constraints(), 0);

  const Solution sol = solve_with(m, true);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 3.0, 1e-9);
  EXPECT_NEAR(sol.objective, 5.0, 1e-9);
  // Equality-singleton dual zeroes x's reduced cost; the link row claims
  // y's cost.
  ASSERT_EQ(sol.duals.size(), 2u);
  EXPECT_NEAR(sol.reduced_costs[0], 0.0, 1e-9);
  EXPECT_NEAR(sol.reduced_costs[1], 0.0, 1e-9);
  EXPECT_NEAR(sol.duals[1], 1.0, 1e-9);  // >= row, y >= 0
}

TEST(Presolve, TwoEqualitySingletonsOnOneColumnShareTheDual) {
  // Both rows pin the same variable (consistently); the two recovered
  // duals must split the objective coefficient, not each claim all of it:
  // y1 * 1 + y2 * 2 = c so the reduced cost lands at exactly zero.
  Model m;
  (void)m.add_continuous(0.0, 10.0, 2.0);
  (void)m.add_constraint({{0, 1.0}}, Sense::Equal, 3.0);
  (void)m.add_constraint({{0, 2.0}}, Sense::Equal, 6.0);
  const Solution sol = solve_with(m, true);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 3.0, 1e-12);
  EXPECT_NEAR(sol.objective, 6.0, 1e-12);
  ASSERT_EQ(sol.duals.size(), 2u);
  EXPECT_NEAR(sol.reduced_costs[0], 0.0, 1e-9);
  EXPECT_NEAR(sol.duals[0] * 1.0 + sol.duals[1] * 2.0, 2.0, 1e-9);
  // Identity: obj == y.b with both rows binding (zero slack).
  EXPECT_NEAR(sol.duals[0] * 3.0 + sol.duals[1] * 6.0, 6.0, 1e-9);
}

TEST(Presolve, FixedColumnSubstitutesIntoRows) {
  // z fixed at 3 by its bounds; its term folds into the row rhs.
  Model m;
  (void)m.add_continuous(0.0, 10.0, -1.0);
  (void)m.add_continuous(3.0, 3.0, 2.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::LessEqual, 8.0);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::Reduced);
  EXPECT_EQ(pre.stats().cols_removed, 1);
  pre.build_reduced(m);
  ASSERT_EQ(pre.reduced().num_variables(), 1);
  // x <= 8 - 3 = 5, via the now-singleton row turned bound.
  EXPECT_EQ(pre.reduced().num_constraints(), 0);
  EXPECT_DOUBLE_EQ(pre.reduced().variable(0).upper, 5.0);

  const Solution sol = solve_with(m, true);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 5.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 3.0, 1e-9);
  EXPECT_NEAR(sol.objective, -5.0 + 6.0, 1e-9);
}

TEST(Presolve, RedundantRowRemoved) {
  // x + y <= 25 can never bind with x, y in [0, 10].
  Model m;
  (void)m.add_continuous(0.0, 10.0, -1.0);
  (void)m.add_continuous(0.0, 10.0, -1.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::LessEqual,
                         25.0);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::Reduced);
  EXPECT_EQ(pre.stats().rows_removed, 1);
  EXPECT_EQ(pre.stats().nonzeros_removed, 2);

  const Solution sol = solve_with(m, true);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -20.0, 1e-9);
  ASSERT_EQ(sol.duals.size(), 1u);
  EXPECT_NEAR(sol.duals[0], 0.0, 1e-12);  // non-binding row, dual 0
}

TEST(Presolve, ImpliedFreeColumnSingletonEliminated) {
  // t appears only in the equality row and its bounds [-100, 100] can never
  // bind given x, y in [0, 4]: t = 10 - x - y stays within [2, 10].
  Model m;
  (void)m.add_continuous(0.0, 4.0, 1.0);
  (void)m.add_continuous(0.0, 4.0, 2.0);
  (void)m.add_continuous(-100.0, 100.0, 3.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, Sense::Equal,
                         10.0);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::Reduced);
  EXPECT_EQ(pre.stats().cols_removed, 1);
  EXPECT_EQ(pre.stats().rows_removed, 1);

  // Substituting t = 10 - x - y turns the objective into
  // 30 - 2x - y over the box => x = 4, y = 4, t = 2, objective 18.
  const Solution sol = solve_with(m, true);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 4.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 4.0, 1e-9);
  EXPECT_NEAR(sol.values[2], 2.0, 1e-9);
  EXPECT_NEAR(sol.objective, 18.0, 1e-9);
  // The eliminated row's dual comes from the substituted column's cost
  // (y_row = c_t / a_t = 3), and equivalence with the raw path holds.
  ASSERT_EQ(sol.duals.size(), 1u);
  EXPECT_NEAR(sol.duals[0], 3.0, 1e-9);
  const Solution off = solve_with(m, false);
  EXPECT_NEAR(off.objective, sol.objective, 1e-9);
}

TEST(Presolve, InfeasibilityDetectedBySingletonConflict) {
  // x >= 5 and x <= 1 cannot both hold: presolve proves it without a
  // single simplex iteration.
  Model m;
  (void)m.add_continuous(0.0, 10.0, 1.0);
  (void)m.add_constraint({{0, 1.0}}, Sense::GreaterEqual, 5.0);
  (void)m.add_constraint({{0, 1.0}}, Sense::LessEqual, 1.0);
  const Solution sol = solve_with(m, true);
  EXPECT_EQ(sol.status, Status::Infeasible);
  EXPECT_FALSE(sol.usable());
  EXPECT_EQ(sol.simplex_iterations, 0);
  // The raw path agrees.
  EXPECT_EQ(solve_with(m, false).status, Status::Infeasible);
}

TEST(Presolve, InfeasibilityDetectedByActivityBounds) {
  // x + y >= 25 with x, y in [0, 10] is impossible.
  Model m;
  (void)m.add_continuous(0.0, 10.0, 1.0);
  (void)m.add_continuous(0.0, 10.0, 1.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::GreaterEqual,
                         25.0);
  const Solution sol = solve_with(m, true);
  EXPECT_EQ(sol.status, Status::Infeasible);
  EXPECT_EQ(sol.simplex_iterations, 0);
}

TEST(Presolve, EmptyProblemFastPath) {
  // Every variable is fixed and every row is implied: presolve decides the
  // whole program, branch-and-bound never runs.
  Model m;
  (void)m.add_variable(2.0, 2.0, VarType::Integer, 3.0);
  (void)m.add_continuous(-1.0, -1.0, 5.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::LessEqual, 4.0);
  const Solution sol = solve_with(m, true);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.nodes_explored, 0);
  EXPECT_EQ(sol.simplex_iterations, 0);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-12);
  EXPECT_NEAR(sol.values[1], -1.0, 1e-12);
  EXPECT_NEAR(sol.objective, 6.0 - 5.0, 1e-12);
  EXPECT_GE(sol.presolve_rows_removed, 1);
  EXPECT_GE(sol.presolve_cols_removed, 2);
}

TEST(Presolve, IntegerBoundTighteningSkipsBranching) {
  // min -x, x integer in [0, 10], 2x <= 9: presolve tightens x <= 4, so the
  // root LP is already integral; the raw path must branch.
  Model m;
  const int x = m.add_variable(0.0, 10.0, VarType::Integer, -1.0);
  (void)m.add_constraint({{x, 2.0}}, Sense::LessEqual, 9.0);
  const Solution on = solve_with(m, true);
  const Solution off = solve_with(m, false);
  ASSERT_EQ(on.status, Status::Optimal);
  EXPECT_NEAR(on.values[0], 4.0, 1e-9);
  EXPECT_NEAR(on.objective, off.objective, 1e-9);
  EXPECT_LT(on.nodes_explored, off.nodes_explored);
}

// --- dual recovery through postsolve ---------------------------------------

TEST(Presolve, LagrangianIdentityHoldsAfterPostsolve) {
  // Randomized LPs built to exercise singleton/redundant rows and fixed
  // columns, solved through the presolve facade; the identity
  //   c.x = y.b + sum_j d_j x_j + sum_i (-y_i) slack_i
  // and the optimality signs must hold exactly as on a raw solve.
  for (int trial = 0; trial < 30; ++trial) {
    util::Rng rng(static_cast<std::uint64_t>(trial) * 271 + 3);
    const int n = static_cast<int>(rng.uniform_int(3, 8));
    Model m;
    std::vector<double> witness;
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform(-2.0, 0.0);
      const double hi = lo + rng.uniform(0.5, 4.0);
      (void)m.add_continuous(lo, hi, rng.uniform(-2.0, 2.0));
      witness.push_back(lo + 0.5 * (hi - lo));
    }
    // A fixed column, feeding the substitution path.
    (void)m.add_continuous(1.5, 1.5, rng.uniform(-1.0, 1.0));
    witness.push_back(1.5);
    const int rows = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < rows; ++i) {
      std::vector<Term> terms;
      double lhs = 0.0;
      for (int j = 0; j < n + 1; ++j) {
        if (rng.bernoulli(0.4)) continue;
        const double c = rng.uniform(-2.0, 2.0);
        terms.push_back({j, c});
        lhs += c * witness[static_cast<std::size_t>(j)];
      }
      if (terms.empty()) {
        terms.push_back({0, 1.0});
        lhs = witness[0];
      }
      (void)m.add_constraint(std::move(terms), Sense::LessEqual,
                             lhs + rng.uniform(0.05, 2.0));
    }
    // A guaranteed singleton row that binds for half the trials.
    (void)m.add_constraint({{0, 1.0}}, Sense::LessEqual,
                           trial % 2 == 0 ? witness[0]
                                          : m.variable(0).upper + 1.0);

    const Solution sol = solve_with(m, true);
    const Solution raw = solve_with(m, false);
    ASSERT_EQ(sol.status, raw.status) << "trial " << trial;
    if (sol.status != Status::Optimal) continue;
    EXPECT_NEAR(sol.objective, raw.objective, 1e-6) << "trial " << trial;
    ASSERT_EQ(sol.duals.size(),
              static_cast<std::size_t>(m.num_constraints()));
    ASSERT_EQ(sol.reduced_costs.size(),
              static_cast<std::size_t>(m.num_variables()));

    double rhs_total = 0.0;
    for (int i = 0; i < m.num_constraints(); ++i) {
      const Constraint& c = m.constraint(i);
      double activity = 0.0;
      for (const Term& t : c.terms)
        activity += t.coeff * sol.values[static_cast<std::size_t>(t.var)];
      const double slack = c.rhs - activity;
      rhs_total += sol.duals[static_cast<std::size_t>(i)] * c.rhs;
      rhs_total += -sol.duals[static_cast<std::size_t>(i)] * slack;
      // All rows are <=: duals must be non-positive.
      EXPECT_LE(sol.duals[static_cast<std::size_t>(i)], 1e-6)
          << "trial " << trial << " row " << i;
    }
    for (int j = 0; j < m.num_variables(); ++j)
      rhs_total += sol.reduced_costs[static_cast<std::size_t>(j)] *
                   sol.values[static_cast<std::size_t>(j)];
    EXPECT_NEAR(sol.objective, rhs_total, 1e-6) << "trial " << trial;

    // Optimality signs at the original bounds (fixed column exempt).
    for (int j = 0; j < n; ++j) {
      const auto& v = m.variable(j);
      const double xv = sol.values[static_cast<std::size_t>(j)];
      const double d = sol.reduced_costs[static_cast<std::size_t>(j)];
      if (xv > v.lower + 1e-7 && xv < v.upper - 1e-7) {
        EXPECT_NEAR(d, 0.0, 1e-6) << "trial " << trial << " var " << j;
      }
      if (std::abs(xv - v.lower) <= 1e-9 && std::abs(xv - v.upper) > 1e-9) {
        EXPECT_GE(d, -1e-6) << "trial " << trial << " var " << j;
      }
      if (std::abs(xv - v.upper) <= 1e-9 && std::abs(xv - v.lower) > 1e-9) {
        EXPECT_LE(d, 1e-6) << "trial " << trial << " var " << j;
      }
    }
  }
}

// --- seed translation ------------------------------------------------------

TEST(Presolve, SeedIncumbentSurvivesReduction) {
  // A feasible integral seed translated into the reduced space must leave
  // the final objective identical to the unseeded solve (seeding is an
  // acceleration only).
  const int regions = 4;
  const int jobs = 40;
  const Model m = hard_chunk_model(jobs, regions, 0.4, 77);
  std::vector<double> vals(static_cast<std::size_t>(m.num_variables()), 0.0);
  // Greedy: each job to the admissible region with the most capacity left,
  // so a tight capacity total still yields a feasible assignment.
  std::vector<int> caps(regions, static_cast<int>(std::ceil(jobs / 4.0)) + 1);
  for (int j = 0; j < jobs; ++j) {
    int best = -1;
    for (int r = 0; r < regions; ++r) {
      const auto xi = static_cast<std::size_t>(j * regions + r);
      if (m.variable(static_cast<int>(xi)).upper < 0.5) continue;
      if (caps[static_cast<std::size_t>(r)] <= 0) continue;
      if (best < 0 || caps[static_cast<std::size_t>(r)] >
                          caps[static_cast<std::size_t>(best)])
        best = r;
    }
    ASSERT_GE(best, 0) << "job " << j;
    vals[static_cast<std::size_t>(j * regions + best)] = 1.0;
    --caps[static_cast<std::size_t>(best)];
  }
  ASSERT_LE(m.max_violation(vals), 1e-9);
  const Solution seed = Solution::incumbent_from_heuristic(m, vals);
  const Solution seeded = solve_with(m, true, &seed);
  const Solution unseeded = solve_with(m, true);
  ASSERT_EQ(seeded.status, Status::Optimal);
  EXPECT_NEAR(seeded.objective, unseeded.objective, 1e-9);

  // A seed contradicting a presolve fixing is dropped, not propagated: the
  // solve still returns the true optimum.
  std::vector<double> bad = vals;
  for (int v = 0; v < m.num_variables(); ++v) {
    if (m.variable(v).upper < 0.5 && bad[static_cast<std::size_t>(v)] == 0.0) {
      bad[static_cast<std::size_t>(v)] = 1.0;  // violates the x = 0 fixing
      break;
    }
  }
  const Solution bad_seed = Solution::incumbent_from_heuristic(m, bad);
  const Solution sol = solve_with(m, true, &bad_seed);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, unseeded.objective, 1e-9);
}

// --- reduce_point / postsolve plumbing -------------------------------------

TEST(Presolve, ReducePointChecksFixings) {
  Model m;
  (void)m.add_continuous(2.0, 2.0, 1.0);
  (void)m.add_continuous(0.0, 5.0, 1.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::LessEqual, 6.0);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::Reduced);
  pre.build_reduced(m);
  std::vector<double> out;
  EXPECT_TRUE(pre.reduce_point({2.0, 1.0}, &out));
  ASSERT_EQ(out.size(), static_cast<std::size_t>(
                            pre.reduced().num_variables()));
  EXPECT_FALSE(pre.reduce_point({3.0, 1.0}, &out));  // contradicts fix
  EXPECT_FALSE(pre.reduce_point({2.0}, &out));       // wrong length
}

TEST(Presolve, StatusesPassThroughUnchanged) {
  // Unbounded and iteration-limited solves keep their status and counters
  // through postsolve.
  Model m;
  (void)m.add_continuous(0.0, kInfinity, -1.0);
  (void)m.add_continuous(1.0, 1.0, 0.0);  // force a reduction
  (void)m.add_constraint({{0, -1.0}, {1, 1.0}}, Sense::LessEqual, 1.0);
  const Solution sol = solve_with(m, true);
  EXPECT_EQ(sol.status, Status::Unbounded);
  EXPECT_EQ(solve_with(m, false).status, Status::Unbounded);
}

}  // namespace
}  // namespace ww::milp
