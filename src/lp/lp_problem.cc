#include "src/lp/lp_problem.h"

#include <cassert>
#include <cmath>

namespace plumber {

int LpProblem::AddVariable(std::string name, double objective_coeff,
                           double upper) {
  assert(upper >= 0);
  names_.push_back(std::move(name));
  objective_.push_back(objective_coeff);
  upper_.push_back(upper);
  return static_cast<int>(names_.size()) - 1;
}

void LpProblem::AddConstraint(std::vector<std::pair<int, double>> terms,
                              ConstraintSense sense, double rhs,
                              std::string name) {
  for (const auto& [var, coeff] : terms) {
    assert(var >= 0 && var < num_variables());
    (void)coeff;
  }
  constraints_.push_back(
      LpConstraint{std::move(terms), sense, rhs, std::move(name)});
}

bool LpProblem::IsFeasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != num_variables()) return false;
  for (int i = 0; i < num_variables(); ++i) {
    if (x[i] < -tol || x[i] > upper_[i] + tol) return false;
  }
  for (const auto& c : constraints_) {
    double lhs = 0;
    for (const auto& [var, coeff] : c.terms) lhs += coeff * x[var];
    switch (c.sense) {
      case ConstraintSense::kLe:
        if (lhs > c.rhs + tol) return false;
        break;
      case ConstraintSense::kGe:
        if (lhs < c.rhs - tol) return false;
        break;
      case ConstraintSense::kEq:
        if (std::abs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace plumber
