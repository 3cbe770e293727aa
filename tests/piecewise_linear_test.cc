#include "src/io/piecewise_linear.h"

#include <gtest/gtest.h>

#include "src/io/io_profiler.h"
#include "src/io/storage_device.h"

namespace plumber {
namespace {

PiecewiseLinear BandwidthCurve() {
  PiecewiseLinear curve;
  curve.AddPoint(1, 100);
  curve.AddPoint(2, 200);
  curve.AddPoint(4, 380);
  curve.AddPoint(8, 400);
  curve.AddPoint(16, 400);
  return curve;
}

TEST(PiecewiseLinearTest, EvalInterpolatesAndClamps) {
  const auto curve = BandwidthCurve();
  EXPECT_DOUBLE_EQ(curve.Eval(1), 100);
  EXPECT_DOUBLE_EQ(curve.Eval(1.5), 150);
  EXPECT_DOUBLE_EQ(curve.Eval(3), 290);
  EXPECT_DOUBLE_EQ(curve.Eval(0.1), 100);   // clamp low
  EXPECT_DOUBLE_EQ(curve.Eval(100), 400);   // clamp high
}

TEST(PiecewiseLinearTest, InverseMinFindsMinimalX) {
  const auto curve = BandwidthCurve();
  EXPECT_DOUBLE_EQ(curve.InverseMin(100), 1);
  EXPECT_DOUBLE_EQ(curve.InverseMin(150), 1.5);
  EXPECT_DOUBLE_EQ(curve.InverseMin(400), 8);
  // Unreachable target returns the last x.
  EXPECT_DOUBLE_EQ(curve.InverseMin(1e9), 16);
}

TEST(PiecewiseLinearTest, MaxAndSaturation) {
  const auto curve = BandwidthCurve();
  EXPECT_DOUBLE_EQ(curve.MaxY(), 400);
  // 95% of max = 380 is first reached at x = 4.
  EXPECT_DOUBLE_EQ(curve.SaturationX(0.05), 4);
}

TEST(PiecewiseLinearTest, EmptyCurve) {
  PiecewiseLinear curve;
  EXPECT_TRUE(curve.empty());
  EXPECT_EQ(curve.Eval(3), 0);
  EXPECT_EQ(curve.InverseMin(3), 0);
}

TEST(IoProfilerTest, MeasuresUnlimitedBandwidth) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.CreateRawFile("probe/x", 1, 64 << 20).ok());
  const double bw =
      MeasureBandwidth(&fs, "probe/", /*parallelism=*/2, 0.03);
  EXPECT_GT(bw, 1e6);  // ought to be far beyond 1MB/s with no limiter
}

TEST(IoProfilerTest, CurveSaturatesAtAggregateCap) {
  // Per-stream 3MB/s, aggregate 6MB/s: bandwidth should grow from ~3 at
  // parallelism 1 to ~6 at parallelism >= 2 and then flatten.
  StorageDevice device(DeviceSpec::CloudStorage(6e6, 3e6));
  SimFilesystem fs(&device);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        fs.CreateRawFile("probe/" + std::to_string(i), i, 64 << 20).ok());
  }
  IoProfileOptions options;
  options.parallelism_levels = {1, 2, 4};
  options.seconds_per_probe = 0.25;
  const IoProfileResult result = ProfileReadBandwidth(&fs, "probe/", options);
  const double bw1 = result.parallelism_to_bandwidth.Eval(1);
  const double bw4 = result.parallelism_to_bandwidth.Eval(4);
  EXPECT_LT(bw1, 4.5e6);
  EXPECT_GT(bw4, bw1);
  EXPECT_LT(result.max_bandwidth, 8e6);
}

}  // namespace
}  // namespace plumber
