// Monotone piecewise-linear curves.
//
// Plumber fits an empirical parallelism -> bandwidth curve for a data
// source and injects it into the optimizer to find the minimal read
// parallelism that reaches peak bandwidth (paper §4.3 "Disk").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace plumber {

class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  // Points must be added with strictly increasing x.
  void AddPoint(double x, double y);

  // Linear interpolation; clamps outside [x_front, x_back].
  double Eval(double x) const;

  // Smallest x with Eval(x) >= y, or the last x if y is unreachable.
  double InverseMin(double y) const;

  // Largest y over all points.
  double MaxY() const;

  // Smallest x achieving (1 - tolerance) * MaxY(): the "knee".
  double SaturationX(double tolerance = 0.05) const;

  bool empty() const { return xs_.empty(); }
  std::string ToString() const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace plumber
