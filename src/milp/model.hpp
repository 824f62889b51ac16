// Mixed-integer linear program model builder.
//
// This replaces the paper's PuLP/GLPK dependency: WaterWise's Decision
// Controller (Eq. 8-13) builds its program through this API and solves it
// with ww::milp::solve().  Convention: minimize c^T x subject to row
// constraints and variable bounds; integrality per variable.
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace ww::milp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType { Continuous, Binary, Integer };
enum class Sense { LessEqual, GreaterEqual, Equal };

/// One nonzero of a constraint row.
struct Term {
  int var = -1;
  double coeff = 0.0;
};

struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = kInfinity;
  VarType type = VarType::Continuous;
  double objective = 0.0;
};

struct Constraint {
  std::string name;
  std::vector<Term> terms;
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
};

class Model {
 public:
  /// Returns the new variable's index.  Binary forces bounds to [0, 1].
  /// Names are optional debug metadata: the unnamed overloads store an
  /// empty string (no heap traffic on the model-build hot path) and
  /// variable_name()/constraint_name() synthesize an "x<i>"/"c<i>" label
  /// on demand for printing and error messages.
  int add_variable(std::string name, double lower, double upper,
                   VarType type = VarType::Continuous, double objective = 0.0);
  int add_variable(double lower, double upper,
                   VarType type = VarType::Continuous, double objective = 0.0) {
    return add_variable(std::string(), lower, upper, type, objective);
  }
  int add_continuous(std::string name, double lower, double upper,
                     double objective = 0.0);
  int add_continuous(double lower, double upper, double objective = 0.0) {
    return add_continuous(std::string(), lower, upper, objective);
  }
  int add_binary(std::string name, double objective = 0.0);
  int add_binary(double objective = 0.0) {
    return add_binary(std::string(), objective);
  }

  /// Pre-sizes the variable/constraint vectors so chunked model builds
  /// (thousands of columns per scheduling window) do not reallocate.
  void reserve(int variables, int constraints);

  void set_objective_coefficient(int var, double coeff);
  /// Adds `delta` to the variable's current objective coefficient.
  void add_objective_coefficient(int var, double delta);
  /// Tightens/replaces a variable's bounds (e.g. fixing a binary to 0).
  void set_variable_bounds(int var, double lower, double upper);

  /// Returns the new constraint's index.  Duplicate variables within `terms`
  /// are merged (summed in input order), exact zeros are dropped, and the
  /// row is stored sorted by variable.
  int add_constraint(std::string name, std::vector<Term> terms, Sense sense,
                     double rhs);
  int add_constraint(std::vector<Term> terms, Sense sense, double rhs) {
    return add_constraint(std::string(), std::move(terms), sense, rhs);
  }

  [[nodiscard]] int num_variables() const noexcept {
    return static_cast<int>(variables_.size());
  }
  [[nodiscard]] int num_constraints() const noexcept {
    return static_cast<int>(constraints_.size());
  }
  [[nodiscard]] const Variable& variable(int i) const {
    return variables_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const Constraint& constraint(int i) const {
    return constraints_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const std::vector<Variable>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }

  /// Stored name, or a synthesized "x<i>" / "c<i>" label when the entity
  /// was added through an unnamed overload.
  [[nodiscard]] std::string variable_name(int i) const;
  [[nodiscard]] std::string constraint_name(int i) const;

  [[nodiscard]] bool has_integer_variables() const noexcept;

  /// Objective value of an assignment (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// Max constraint/bound violation of an assignment; 0 means feasible.
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace ww::milp
