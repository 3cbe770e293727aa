#include "src/io/token_bucket.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/util/cpu_timer.h"

namespace plumber {
namespace {

TEST(TokenBucketTest, UnlimitedNeverBlocks) {
  TokenBucket bucket(0);
  EXPECT_TRUE(bucket.unlimited());
  const int64_t t0 = WallNanos();
  for (int i = 0; i < 1000; ++i) bucket.Acquire(1e9);
  EXPECT_LT(WallNanos() - t0, 100'000'000);  // well under 100ms
}

TEST(TokenBucketTest, BurstServesImmediately) {
  TokenBucket bucket(/*rate=*/1000, /*burst=*/1000);
  const int64_t t0 = WallNanos();
  bucket.Acquire(500);
  EXPECT_LT(WallNanos() - t0, 50'000'000);
}

TEST(TokenBucketTest, RateLimitsSustainedThroughput) {
  TokenBucket bucket(/*rate=*/100000, /*burst=*/1000);
  const int64_t t0 = WallNanos();
  double acquired = 0;
  // Ask for 20k tokens beyond the burst: should take ~0.2s at 100k/s.
  while (acquired < 21000) {
    bucket.Acquire(1000);
    acquired += 1000;
  }
  const double elapsed = (WallNanos() - t0) * 1e-9;
  EXPECT_GT(elapsed, 0.1);
  EXPECT_LT(elapsed, 0.6);
}

TEST(TokenBucketTest, ConcurrentAcquiresConserveRate) {
  TokenBucket bucket(/*rate=*/200000, /*burst=*/2000);
  std::vector<std::thread> threads;
  std::atomic<double> total{0};
  const int64_t t0 = WallNanos();
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        bucket.Acquire(1000);
        double cur = total.load();
        while (!total.compare_exchange_weak(cur, cur + 1000)) {
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = (WallNanos() - t0) * 1e-9;
  // 40k tokens at 200k/s with a 2k burst: at least ~0.15s.
  EXPECT_GT(elapsed, 0.1);
  EXPECT_EQ(total.load(), 40000);
}

}  // namespace
}  // namespace plumber
