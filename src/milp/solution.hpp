// Solver status and solution types shared by the LP and MILP layers.
#pragma once

#include <string>
#include <vector>

namespace ww::milp {

class Model;

enum class Status {
  Optimal,          ///< Proven optimal (LP) or tree exhausted with incumbent.
  Infeasible,       ///< No feasible point exists.
  Unbounded,        ///< Objective unbounded below.
  IterationLimit,   ///< Simplex iteration limit hit.
  NodeLimit,        ///< Branch-and-bound node limit; `values` holds the
                    ///< best incumbent if `has_incumbent`.
};

[[nodiscard]] std::string to_string(Status s);

struct Solution {
  Status status = Status::Infeasible;
  bool has_incumbent = false;  ///< True when `values` holds a feasible point.
  double objective = 0.0;
  std::vector<double> values;

  /// LP-only diagnostics (populated by SimplexSolver, empty after
  /// branch-and-bound): one dual multiplier per constraint row and one
  /// reduced cost per structural variable.  They satisfy the identity
  ///   objective == duals . rhs + sum_j reduced_cost_j * x_j
  ///                + sum_i (-duals_i) * slack_i
  /// and the usual optimality signs (>= 0 at lower bound, <= 0 at upper).
  std::vector<double> duals;
  std::vector<double> reduced_costs;

  // Diagnostics.
  long simplex_iterations = 0;
  long nodes_explored = 0;
  /// Nodes re-solved by dual simplex from a parent basis, skipping phase 1
  /// entirely.  For a single LP solve this is 1 when a warm basis was
  /// accepted; branch-and-bound accumulates it across the tree.
  long warm_started_nodes = 0;
  /// Nodes that needed a phase-1 run with artificial columns (cold starts
  /// whose initial logical basis was primal infeasible).
  long phase1_nodes = 0;
  /// Sparse-kernel diagnostics: full LU factorizations of the basis and
  /// Forrest-Tomlin basis updates absorbed between them.
  long refactorizations = 0;
  long ft_updates = 0;
  /// Presolve diagnostics (zero when SolverOptions::presolve is off): how
  /// much of the model never reached the simplex, and what the reductions
  /// cost.  presolve_seconds is included in solve_seconds.
  long presolve_rows_removed = 0;
  long presolve_cols_removed = 0;
  long presolve_nonzeros_removed = 0;
  double presolve_seconds = 0.0;
  double best_bound = 0.0;  ///< Proven lower bound on the optimum.
  double solve_seconds = 0.0;

  [[nodiscard]] bool is_optimal() const noexcept {
    return status == Status::Optimal;
  }
  /// True when `values` can be used as a (possibly suboptimal) answer.
  [[nodiscard]] bool usable() const noexcept {
    return status == Status::Optimal || has_incumbent;
  }

  /// Wraps a heuristic feasible point as a seed incumbent for
  /// branch-and-bound (initial upper bound; pruning starts at node 0).
  /// The objective is recomputed from the model so seeded and tree-found
  /// incumbents compare on identical arithmetic.  Status is NodeLimit:
  /// feasible but unproven.  Defined in branch_and_bound.cpp.
  [[nodiscard]] static Solution incumbent_from_heuristic(
      const Model& model, std::vector<double> values);
};

/// Process-wide default for SolverOptions::presolve: true unless the
/// WW_PRESOLVE environment variable says off|0|false (the ablation switch
/// CI uses to run the whole suite down the raw solver path).  Defined in
/// presolve.cpp.
[[nodiscard]] bool presolve_enabled_by_default() noexcept;

/// Process-wide switch forcing a refactorization after every simplex pivot
/// (the slow-but-simple ablation path): true when the WW_REFACTOR_EVERY_PIVOT
/// environment variable says on|1|true.  CI runs the whole suite this way so
/// the Forrest-Tomlin update can always be cross-checked against fresh
/// factorizations.  Defined in simplex.cpp.
[[nodiscard]] bool refactor_every_pivot_forced() noexcept;

/// Entering-variable selection rule for the primal simplex.
enum class Pricing {
  Devex,    ///< Reference-framework Devex weights with a candidate list.
  Dantzig,  ///< Most-negative reduced cost (full scan of maintained costs).
};

/// Reduced-cost / pivot threshold.
inline constexpr double kPivotTolerance = 1e-9;
/// Bound/row violation acceptance.
inline constexpr double kFeasibilityTolerance = 1e-7;
/// |x - round(x)| accepted as integral for integer variables.
inline constexpr double kIntegralityTolerance = 1e-6;
/// Prune nodes within this of the incumbent (absolute gap).
inline constexpr double kMipGapAbs = 1e-9;

/// Solver budgets and switches.  Every budget is a node or iteration count,
/// never wall-clock time, so a solve's answer does not depend on the host.
struct SolverOptions {
  long max_iterations = 200000;        ///< Simplex iterations per LP solve.
  long max_nodes = 200000;             ///< Branch-and-bound node budget.
  double mip_gap_rel = 1e-6;           ///< Prune nodes within this fraction
                                       ///< of the incumbent (or kMipGapAbs).
  int refactor_interval = 100;         ///< Iteration cadence backstop for
                                       ///< refactorization (numeric hygiene
                                       ///< for xb / reduced-cost drift).
  /// Maximum Forrest-Tomlin basis updates absorbed between
  /// refactorizations.  0 refactorizes after every pivot — the
  /// slow-but-simple ablation path (also reachable process-wide through
  /// the WW_REFACTOR_EVERY_PIVOT environment switch, which overrides
  /// everything here).  Updates keep ftran/btran cost flat, so the budget
  /// is numeric hygiene rather than a speed knob.
  int update_budget = 64;
  /// Refactorize when the factors' fill — U spikes plus row-eta nonzeros —
  /// grows past this multiple of the freshly factorized nonzero count
  /// (BasisLU::fill_ratio()).  Growth degrades both solve cost and
  /// accuracy, so it triggers refactorization instead of a fixed eta cap.
  double fill_growth_limit = 3.0;
  /// Entering-variable rule; Devex is the default, Dantzig kept for
  /// equivalence testing.  Both fall back to Bland's rule after
  /// `bland_iterations` for anti-cycling.
  Pricing pricing = Pricing::Devex;
  /// Branch-and-bound re-solves child nodes from the parent's optimal basis
  /// with the dual simplex (a single tightened bound keeps the parent basis
  /// dual feasible, so phase 1 and its artificial columns are skipped).
  /// Disable to force cold solves at every node (equivalence testing).
  bool warm_start = true;
  /// Best-first node selection (priority queue on node bound) with diving;
  /// false restores pure depth-first diving.
  bool best_first = true;
  /// Simplex iteration at which pricing falls back to Bland's rule for
  /// guaranteed termination on degenerate instances (the rule is active
  /// from this iteration onward).  0 = automatic (1000 + 20 * columns);
  /// tests set 1 to force Bland from the very first pivot.
  long bland_iterations = 0;
  /// Run the presolve/postsolve subsystem (milp/presolve.hpp) around the
  /// solve: singleton/redundant rows, fixed and implied-free columns, and
  /// integer bound tightening are folded out before the simplex sees the
  /// model, and the solution is mapped back afterwards.  Off solves the
  /// model verbatim (ablation/equivalence testing).
  bool presolve = presolve_enabled_by_default();
};

}  // namespace ww::milp
