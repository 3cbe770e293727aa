// StorageDevice tests. One metered-device type serves disks and NICs:
// the presets, byte-exact counters (also under concurrency), token-bucket
// pacing through Charge and through a filesystem read stream, the fixed
// per-charge latency, the per-stream cap, and SetBandwidth.
#include "src/io/storage_device.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/io/sim_filesystem.h"
#include "src/util/cpu_timer.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::EventuallyTrue;

TEST(StorageDeviceTest, PresetSpecs) {
  EXPECT_EQ(DeviceSpec::Unlimited().max_bandwidth, 0);
  EXPECT_EQ(DeviceSpec::Unlimited().read_latency_s, 0);
  EXPECT_GT(DeviceSpec::Hdd().max_bandwidth, 0);
  EXPECT_GT(DeviceSpec::NvmeSsd().max_bandwidth,
            DeviceSpec::Hdd().max_bandwidth);
  EXPECT_DOUBLE_EQ(DeviceSpec::TokenBucketLimit(5e6).max_bandwidth, 5e6);
  EXPECT_EQ(DeviceSpec::TokenBucketLimit(5e6).read_latency_s, 0);
  // NICs: a per-transfer latency and no per-stream cap.
  EXPECT_DOUBLE_EQ(DeviceSpec::Gigabit().max_bandwidth, 125e6);
  EXPECT_GT(DeviceSpec::Gigabit().read_latency_s, 0);
  EXPECT_EQ(DeviceSpec::Gigabit().per_stream_bandwidth, 0);
  EXPECT_DOUBLE_EQ(DeviceSpec::TenGigabit().max_bandwidth, 1.25e9);
  EXPECT_GT(DeviceSpec::TenGigabit().read_latency_s, 0);
  EXPECT_EQ(DeviceSpec::TenGigabit().per_stream_bandwidth, 0);
}

TEST(StorageDeviceTest, CountersAreByteExact) {
  StorageDevice device(DeviceSpec::Unlimited());
  const std::vector<uint64_t> sizes = {1, 64, 1500, 9000, 123457};
  uint64_t expected = 0;
  for (uint64_t bytes : sizes) {
    device.Charge(bytes);
    expected += bytes;
  }
  EXPECT_EQ(device.total_bytes_read(), expected);
  EXPECT_EQ(device.total_reads(), sizes.size());
  device.ResetCounters();
  EXPECT_EQ(device.total_bytes_read(), 0u);
  EXPECT_EQ(device.total_reads(), 0u);
}

TEST(StorageDeviceTest, CountersAreByteExactUnderConcurrency) {
  StorageDevice device(DeviceSpec::Unlimited());
  constexpr int kThreads = 4;
  constexpr int kChargesPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&device, t] {
      for (int i = 0; i < kChargesPerThread; ++i) {
        device.Charge(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Sum over threads of charge_count * (t+1).
  uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected += static_cast<uint64_t>(kChargesPerThread) * (t + 1);
  }
  EXPECT_EQ(device.total_bytes_read(), expected);
  EXPECT_EQ(device.total_reads(),
            static_cast<uint64_t>(kThreads) * kChargesPerThread);
}

TEST(StorageDeviceTest, ChargePacesToBandwidth) {
  // 10 MB/s: moving 1 MB beyond the burst allowance must take close to
  // the modeled wire time. The burst is 2% of bandwidth (20ms worth),
  // so charge well past it.
  const double bandwidth = 10e6;
  StorageDevice device(DeviceSpec::TokenBucketLimit(bandwidth));
  const uint64_t total = 1 << 20;  // 1 MiB
  const double modeled_s = total / bandwidth;
  EXPECT_TRUE(EventuallyTrue([&] {
    const int64_t t0 = WallNanos();
    for (int i = 0; i < 16; ++i) device.Charge(total / 16);
    const double took_s = (WallNanos() - t0) * 1e-9;
    // The burst bucket forgives up to 20ms of the wire time.
    return took_s >= modeled_s - 0.03;
  }));
  EXPECT_EQ(device.total_bytes_read(), total);
}

TEST(StorageDeviceTest, TokenBucketLimitsReadBandwidth) {
  StorageDevice device(DeviceSpec::TokenBucketLimit(1e6));  // 1MB/s
  device.SetBandwidth(1e6);
  SimFilesystem fs(&device);
  ASSERT_TRUE(fs.CreateRawFile("x", 7, 10 << 20).ok());
  auto reader = std::move(fs.OpenRaw("x")).value();
  const int64_t t0 = WallNanos();
  uint64_t total = 0;
  // The bucket holds 20ms of tokens (20KB). The first 100KB read is
  // granted from the full burst and leaves 80KB of debt, so each of the
  // two reads after it waits ~0.1s: 300KB takes >= 0.2s.
  while (total < 300'000) {
    total += reader->Read(100'000, /*loop=*/true);
  }
  EXPECT_GT((WallNanos() - t0) * 1e-9, 0.1);
}

TEST(StorageDeviceTest, LatencyChargedPerCharge) {
  DeviceSpec spec = DeviceSpec::Unlimited();
  spec.read_latency_s = 5e-3;
  StorageDevice device(spec);
  EXPECT_TRUE(EventuallyTrue([&] {
    const int64_t t0 = WallNanos();
    for (int i = 0; i < 4; ++i) device.Charge(1);
    const double took_s = (WallNanos() - t0) * 1e-9;
    return took_s >= 4 * 5e-3 - 1e-3;
  }));
}

TEST(StorageDeviceTest, PerStreamCapScalesWithParallelism) {
  DeviceSpec spec = DeviceSpec::CloudStorage(/*aggregate=*/1e12,
                                             /*per_stream=*/1e6);
  StorageDevice device(spec);
  auto s1 = device.OpenStream();
  auto s2 = device.OpenStream();
  // Each stream has an independent 1e6/s budget with 1e6 burst:
  // acquiring 1e6 on both immediately must succeed without waiting on a
  // shared limit.
  const int64_t t0 = WallNanos();
  s1->Charge(1'000'000);
  s2->Charge(1'000'000);
  EXPECT_LT((WallNanos() - t0) * 1e-9, 0.2);
}

TEST(StorageDeviceTest, SetBandwidthRetargetsTheBucket) {
  StorageDevice device(DeviceSpec::TokenBucketLimit(1e6));
  device.SetBandwidth(0);  // unlimited now
  const int64_t t0 = WallNanos();
  device.Charge(100 << 20);  // would take >100s at 1 MB/s
  EXPECT_LT((WallNanos() - t0) * 1e-9, 5.0);
}

}  // namespace
}  // namespace plumber
