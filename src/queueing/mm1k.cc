#include "src/queueing/mm1k.h"

#include <cmath>

namespace plumber {

double Mm1kProbEmpty(double rho, int k) {
  if (rho <= 0) return 1.0;
  if (k < 1) k = 1;
  // p_0 = (1 - rho) / (1 - rho^{k+1}) for rho != 1, else 1/(k+1).
  if (std::abs(rho - 1.0) < 1e-12) return 1.0 / (k + 1);
  return (1.0 - rho) / (1.0 - std::pow(rho, k + 1));
}

double Mm1kOverlappedLatency(double upstream_latency, double rho, int k) {
  return Mm1kProbEmpty(rho, k) * upstream_latency;
}

}  // namespace plumber
