#include "milp/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ww::milp {

int Model::add_variable(double lower, double upper, VarType type,
                        double objective) {
  if (type == VarType::Binary) {
    lower = 0.0;
    upper = 1.0;
  }
  if (lower > upper)
    throw std::invalid_argument("Model: variable x" +
                                std::to_string(variables_.size()) +
                                " has lower > upper");
  variables_.push_back(Variable{lower, upper, type, objective});
  return static_cast<int>(variables_.size()) - 1;
}

void Model::reserve(int variables, int constraints) {
  variables_.reserve(static_cast<std::size_t>(std::max(variables, 0)));
  constraints_.reserve(static_cast<std::size_t>(std::max(constraints, 0)));
}

void Model::set_variable_bounds(int var, double lower, double upper) {
  if (lower > upper)
    throw std::invalid_argument("Model: set_variable_bounds lower > upper");
  auto& v = variables_.at(static_cast<std::size_t>(var));
  v.lower = lower;
  v.upper = upper;
}

int Model::add_constraint(std::vector<Term> terms, Sense sense, double rhs) {
  for (const Term& t : terms)
    if (t.var < 0 || t.var >= num_variables())
      throw std::out_of_range("Model: constraint c" +
                              std::to_string(constraints_.size()) +
                              " references unknown variable");
  // Merge duplicate variables and drop exact zeros.  A stable sort keeps
  // each variable's terms in input order, so the fold below sums them in
  // that order.  Rows built in variable order skip the sort altogether.
  const auto by_var = [](const Term& a, const Term& b) {
    return a.var < b.var;
  };
  if (!std::is_sorted(terms.begin(), terms.end(), by_var))
    std::stable_sort(terms.begin(), terms.end(), by_var);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < terms.size();) {
    Term merged = terms[i];
    for (++i; i < terms.size() && terms[i].var == merged.var; ++i)
      merged.coeff += terms[i].coeff;
    if (merged.coeff != 0.0) terms[kept++] = merged;
  }
  terms.resize(kept);
  constraints_.push_back(Constraint{std::move(terms), sense, rhs});
  return static_cast<int>(constraints_.size()) - 1;
}

bool Model::has_integer_variables() const noexcept {
  return std::any_of(variables_.begin(), variables_.end(), [](const Variable& v) {
    return v.type != VarType::Continuous;
  });
}

double Model::objective_value(const std::vector<double>& x) const {
  double obj = 0.0;
  for (std::size_t i = 0; i < variables_.size() && i < x.size(); ++i)
    obj += variables_[i].objective * x[i];
  return obj;
}

double Model::max_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    const double v = i < x.size() ? x[i] : 0.0;
    worst = std::max(worst, variables_[i].lower - v);
    worst = std::max(worst, v - variables_[i].upper);
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const Term& t : c.terms)
      lhs += t.coeff *
             (static_cast<std::size_t>(t.var) < x.size()
                  ? x[static_cast<std::size_t>(t.var)]
                  : 0.0);
    switch (c.sense) {
      case Sense::LessEqual:
        worst = std::max(worst, lhs - c.rhs);
        break;
      case Sense::GreaterEqual:
        worst = std::max(worst, c.rhs - lhs);
        break;
      case Sense::Equal:
        worst = std::max(worst, std::abs(lhs - c.rhs));
        break;
    }
  }
  return worst;
}

}  // namespace ww::milp
