// MILP presolve/postsolve: shrinks a Model before the simplex sees it and
// maps the reduced solution back so callers cannot tell a presolved solve
// from a raw one.
//
// A fixpoint loop applies, per pass:
//   - fixed-variable substitution (lower == upper, including the scheduler's
//     x_mn = 0 delay fixings): the column folds into the row rhs and an
//     objective offset;
//   - singleton-row conversion: a one-term row becomes a variable bound
//     (Equal rows fix the variable) and the row is dropped;
//   - redundant-row removal: rows whose activity range from the variable
//     bounds can never violate the rhs are dropped, and rows that can never
//     satisfy it prove infeasibility without a single simplex iteration;
//   - bound tightening from row activities, applied to *integer* columns
//     only (rounded inward), so the LP duals of the reduced model remain
//     exact duals of the original — continuous bounds are never synthesized;
//   - implied-free column singleton elimination: a continuous column that
//     appears in exactly one (equality) row, whose bounds the row already
//     implies, is substituted out together with the row.
//
// Every reduction pushes a postsolve record.  postsolve() replays the stack
// in reverse to reconstruct the full-length primal values and — for pure LP
// solves — dual multipliers for every removed row (redundant rows get 0,
// singleton rows absorb the variable's reduced cost when their derived
// bound is the binding one, eliminated-row duals come from the substituted
// column's cost) plus reduced costs recomputed against the original matrix,
// so the Lagrangian identity and optimality signs documented on Solution
// hold exactly as they would for an unpresolved solve.
//
// Branch-and-bound runs entirely on the reduced model, so warm-start basis
// snapshots, node counters, and seed incumbents (translated into the
// reduced space by reduce_point) behave identically; only the final
// Solution is mapped back.
#pragma once

#include <vector>

#include "milp/model.hpp"
#include "milp/solution.hpp"

namespace ww::milp {

/// Reduction counters for one presolve run (also surfaced on Solution).
struct PresolveStats {
  int rows_removed = 0;
  int cols_removed = 0;
  long nonzeros_removed = 0;  ///< Constraint-matrix terms eliminated.
  int bounds_tightened = 0;   ///< Integer bound tightenings from activities.
  int passes = 0;             ///< Fixpoint iterations until quiescence.
  double seconds = 0.0;
};

class Presolve {
 public:
  enum class Result {
    Reduced,     ///< reduced() holds an equivalent (possibly empty) model.
    Infeasible,  ///< A reduction proved the model infeasible.
  };

  /// Runs the reduction fixpoint over `model` with the fixed tolerances
  /// of solution.hpp; the model itself is not modified.  The reduced model
  /// is NOT materialized here — callers inspect stats() first (a reduction
  /// that removed nothing is cheaper to discard than to rebuild) and then
  /// call build_reduced().
  Result run(const Model& model);

  /// Materializes the reduced model and the original->reduced index maps.
  /// Call after run() returned Reduced and the reductions are worth
  /// applying; `model` must be the same object run() saw.
  void build_reduced(const Model& model);

  /// The reduced model (valid after build_reduced(); empty before).
  /// Surviving variables and constraints keep their relative order.
  [[nodiscard]] const Model& reduced() const noexcept { return reduced_; }

  [[nodiscard]] const PresolveStats& stats() const noexcept { return stats_; }

  /// Objective constant folded out by the reductions:
  /// original objective == reduced objective + offset.
  [[nodiscard]] double objective_offset() const noexcept { return offset_; }

  /// Translates a full-space point (e.g. a heuristic seed incumbent) into
  /// the reduced space.  Returns false when the point contradicts a
  /// presolve fixing by more than kFeasibilityTolerance — the caller
  /// should then solve unseeded.
  [[nodiscard]] bool reduce_point(const std::vector<double>& x,
                                  std::vector<double>* out) const;

  /// Maps a Solution of the reduced model back onto `original` in place:
  /// reconstructs values for every eliminated column, recovers duals and
  /// reduced costs when the original is a pure LP, recomputes the objective
  /// on the original model, shifts best_bound by the objective offset, and
  /// adds the presolve counters/time to the Solution diagnostics.  Safe to
  /// call for non-usable statuses (Infeasible/limits without values).
  void postsolve(const Model& original, Solution& sol) const;

 private:
  struct Record {
    enum class Kind {
      FixedCol,      ///< col fixed at value; cost = working objective coeff.
      SingletonRow,  ///< row became a bound on col (coeff, sense, rhs).
      RedundantRow,  ///< row implied by bounds; dual 0.
      FreeSingleton, ///< col + equality row substituted out; terms = rest of
                     ///< the row (original column indices, fixings folded).
    };
    Kind kind;
    int row = -1;
    int col = -1;
    double coeff = 0.0;
    double rhs = 0.0;
    double value = 0.0;      ///< FixedCol: the fixed value.
    double cost = 0.0;       ///< Working objective coeff at elimination time.
    Sense sense = Sense::LessEqual;
    double bound = 0.0;      ///< SingletonRow: the derived bound value.
    bool bound_is_upper = false;
    bool tightened = false;  ///< Derived bound strictly beat the current one.
    std::vector<Term> terms;
  };

  void fix_column(int j, double value);
  /// Applies a derived bound to column j (rounding integer columns inward);
  /// returns false on a proven-empty domain.
  bool apply_bound(int j, double value, bool is_upper, bool* tightened);

  int n_ = 0;
  int m_ = 0;
  // Row storage: one flat term pool with per-row [begin, end) slices —
  // compaction shrinks a slice in place, so the whole working copy costs
  // three allocations instead of one vector per row.
  std::vector<Term> pool_;
  std::vector<int> row_begin_, row_end_;
  std::vector<double> row_rhs_;
  std::vector<Sense> row_sense_;
  std::vector<char> row_alive_;
  std::vector<double> lb_, ub_, cost_;
  std::vector<bool> is_int_;
  std::vector<bool> col_alive_;
  std::vector<double> fixed_value_;
  double offset_ = 0.0;

  std::vector<Record> records_;
  std::vector<int> col_map_;  ///< original col -> reduced col, -1 if gone.
  std::vector<int> row_map_;  ///< original row -> reduced row, -1 if gone.
  Model reduced_;
  PresolveStats stats_;
};

}  // namespace ww::milp
