// Linear program builder and solution types.
//
// Problems are expressed as: maximize c^T x subject to linear
// constraints over non-negative variables with optional upper bounds.
// This is the substrate for Plumber's core resource-allocation LP
// (paper §4.3); the original uses cvxpy, we solve with a dense
// two-phase simplex (simplex.h).
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace plumber {

enum class ConstraintSense { kLe, kGe, kEq };

struct LpConstraint {
  std::vector<std::pair<int, double>> terms;  // (variable index, coeff)
  ConstraintSense sense = ConstraintSense::kLe;
  double rhs = 0;
  std::string name;
};

struct LpSolution {
  bool feasible = false;
  bool bounded = true;
  double objective = 0;
  std::vector<double> x;
};

class LpProblem {
 public:
  // Adds a variable with bounds [0, upper]; returns its index.
  int AddVariable(std::string name, double objective_coeff = 0,
                  double upper = std::numeric_limits<double>::infinity());

  void AddConstraint(std::vector<std::pair<int, double>> terms,
                     ConstraintSense sense, double rhs,
                     std::string name = "");

  int num_variables() const { return static_cast<int>(names_.size()); }
  const std::string& VariableName(int i) const { return names_[i]; }
  const std::vector<LpConstraint>& constraints() const { return constraints_; }
  const std::vector<double>& objective() const { return objective_; }
  const std::vector<double>& upper_bounds() const { return upper_; }

  // Checks x against all constraints and bounds within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> objective_;
  std::vector<double> upper_;
  std::vector<LpConstraint> constraints_;
};

}  // namespace plumber
