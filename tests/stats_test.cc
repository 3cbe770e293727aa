#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace plumber {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0);
  EXPECT_EQ(s.stddev(), 0);
}

TEST(RunningStatTest, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, MergeEqualsConcatenation) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a, empty;
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_EQ(empty.mean(), 3.0);
}

TEST(RunningStatTest, ConfidenceIntervalShrinksWithSamples) {
  RunningStat small, large;
  for (int i = 0; i < 10; ++i) small.Add(i % 3);
  for (int i = 0; i < 1000; ++i) large.Add(i % 3);
  EXPECT_GT(small.ConfidenceInterval95(), large.ConfidenceInterval95());
}

TEST(QuantileSketchTest, ExactQuantiles) {
  QuantileSketch q;
  for (int i = 1; i <= 100; ++i) q.Add(i);
  EXPECT_NEAR(q.Quantile(0.0), 1, 1e-9);
  EXPECT_NEAR(q.Quantile(1.0), 100, 1e-9);
  EXPECT_NEAR(q.Quantile(0.5), 50.5, 1e-9);
}

TEST(LogHistogramTest, CountsAndCdf) {
  LogHistogram h(1e-6, 1e2, 4);
  h.Add(1e-5);
  h.Add(1e-3);
  h.Add(1e-3);
  h.Add(10);
  EXPECT_EQ(h.TotalCount(), 4);
  EXPECT_NEAR(h.Cdf(1.0), 0.75, 1e-9);
  EXPECT_NEAR(h.Cdf(100.0), 1.0, 1e-9);
}

TEST(LogHistogramTest, ClampsOutOfRange) {
  LogHistogram h(1e-3, 1.0, 2);
  h.Add(1e-9);  // below min
  h.Add(1e9);   // above max
  EXPECT_EQ(h.TotalCount(), 2);
  const auto buckets = h.NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 2u);
}

}  // namespace
}  // namespace plumber
