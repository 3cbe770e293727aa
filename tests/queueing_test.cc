#include <gtest/gtest.h>

#include <cmath>

#include "src/queueing/mm1k.h"

namespace plumber {
namespace {

TEST(Mm1kTest, ProbabilitiesSumToOne) {
  for (double rho : {0.2, 0.8, 1.0, 1.5}) {
    for (int k : {1, 2, 8}) {
      const double p0 = Mm1kProbEmpty(rho, k);
      EXPECT_GE(p0, 0.0);
      EXPECT_LE(p0, 1.0);
      // p_n = p_0 * rho^n for n = 0..k, and the k + 1 states are all
      // there are.
      double sum = 0;
      for (int n = 0; n <= k; ++n) sum += p0 * std::pow(rho, n);
      EXPECT_NEAR(sum, 1.0, 1e-9) << "rho=" << rho << " k=" << k;
    }
  }
}

TEST(Mm1kTest, EmptyProbabilityFallsWithLoad) {
  EXPECT_GT(Mm1kProbEmpty(0.2, 4), Mm1kProbEmpty(0.9, 4));
  EXPECT_GT(Mm1kProbEmpty(0.9, 2), Mm1kProbEmpty(0.9, 16));
  EXPECT_DOUBLE_EQ(Mm1kProbEmpty(0.0, 4), 1.0);
}

TEST(Mm1kTest, BalancedQueueUniform) {
  // rho == 1: all k+1 states equally likely.
  EXPECT_NEAR(Mm1kProbEmpty(1.0, 4), 0.2, 1e-9);
}

TEST(Mm1kTest, OverlappedLatencyShrinksWithBuffer) {
  const double upstream = 1e-3;
  const double small = Mm1kOverlappedLatency(upstream, 0.95, 2);
  const double large = Mm1kOverlappedLatency(upstream, 0.95, 16);
  EXPECT_GT(small, large);
  EXPECT_LT(large, upstream);
}

}  // namespace
}  // namespace plumber
