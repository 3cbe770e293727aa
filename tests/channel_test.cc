// Channel conformance suite: every test here runs against BOTH data
// plane implementations (mutex MPMC BoundedQueue and lock-free SPSC
// SpscRing) through the Channel<T> interface, pinning the shared
// blocking contract — FIFO identity, blocking while full or empty, batch
// chunking over capacity, cancellation semantics, and starvation
// accounting. Stress tests use topology-legal thread counts (1:1 for
// SPSC). Run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "src/util/bounded_queue.h"
#include "src/util/channel.h"
#include "src/util/spsc_ring.h"

namespace plumber {
namespace {

enum class ChannelKind { kMpmc, kSpsc };

std::unique_ptr<Channel<int>> MakeChannel(ChannelKind kind, size_t capacity) {
  if (kind == ChannelKind::kSpsc) {
    return std::make_unique<SpscRing<int>>(capacity);
  }
  return std::make_unique<BoundedQueue<int>>(capacity);
}

// Each producer pushes `per_producer` distinct values, every 17th
// through the one-item Push and the rest in batches whose sizes cycle
// through 1..53 (including sizes above capacity); `consumers` threads
// drain in batches. Every pushed value must arrive exactly once.
void StressExactlyOnce(Channel<int>& channel, int producers, int consumers,
                       int per_producer) {
  std::vector<std::thread> producer_threads;
  for (int p = 0; p < producers; ++p) {
    producer_threads.emplace_back([&channel, p, per_producer] {
      std::vector<int> batch;
      size_t batch_size = 1;
      for (int i = 0; i < per_producer; ++i) {
        const int value = p * per_producer + i;
        if (i % 17 == 0) {
          ASSERT_TRUE(channel.Push(value));
          continue;
        }
        batch.push_back(value);
        if (batch.size() == batch_size) {
          ASSERT_TRUE(channel.PushBatch(std::move(batch)));
          batch.clear();
          batch_size = batch_size % 53 + 1;
        }
      }
      ASSERT_TRUE(channel.PushBatch(std::move(batch)));
    });
  }
  std::mutex mu;
  std::vector<int> seen;
  std::atomic<int> remaining{producers * per_producer};
  std::vector<std::thread> consumer_threads;
  for (int c = 0; c < consumers; ++c) {
    consumer_threads.emplace_back([&] {
      std::vector<int> out;
      while (remaining.load() > 0) {
        out.clear();
        const size_t n = channel.PopBatch(16, &out);
        if (n == 0) break;  // cancelled
        remaining.fetch_sub(static_cast<int>(n));
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(seen.end(), out.begin(), out.end());
      }
    });
  }
  for (auto& t : producer_threads) t.join();
  // Wake consumers that may be blocked on an empty, fully-drained
  // channel.
  while (remaining.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  channel.Cancel();
  for (auto& t : consumer_threads) t.join();
  ASSERT_EQ(seen.size(), static_cast<size_t>(producers * per_producer));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < producers * per_producer; ++i) {
    ASSERT_EQ(seen[i], i);
  }
}

// Rounds of producers and consumers racing a Cancel against a fresh
// channel from `make`: must neither deadlock nor duplicate items —
// values popped form a contiguous prefix of each producer's stream
// (only the batch in flight at cancellation may be dropped).
void StressRacingCancellation(
    const std::function<std::unique_ptr<Channel<int>>()>& make, int producers,
    int consumers, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    auto channel = make();
    std::atomic<bool> stop{false};
    std::vector<std::thread> producer_threads;
    for (int p = 0; p < producers; ++p) {
      producer_threads.emplace_back([&channel, &stop, p] {
        int next = p * 1000000;
        while (!stop.load()) {
          std::vector<int> batch;
          for (int i = 0; i < 5; ++i) batch.push_back(next++);
          if (!channel->PushBatch(std::move(batch))) return;
        }
      });
    }
    std::mutex mu;
    std::vector<int> seen;
    std::vector<std::thread> consumer_threads;
    for (int c = 0; c < consumers; ++c) {
      consumer_threads.emplace_back([&] {
        std::vector<int> out;
        for (;;) {
          out.clear();
          if (channel->PopBatch(7, &out) == 0) return;
          std::lock_guard<std::mutex> lock(mu);
          seen.insert(seen.end(), out.begin(), out.end());
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop = true;
    channel->Cancel();
    for (auto& t : producer_threads) t.join();
    for (auto& t : consumer_threads) t.join();
    std::vector<std::vector<int>> streams(producers);
    for (int v : seen) streams[v / 1000000].push_back(v);
    for (int p = 0; p < producers; ++p) {
      std::sort(streams[p].begin(), streams[p].end());
      for (size_t i = 0; i < streams[p].size(); ++i) {
        ASSERT_EQ(streams[p][i], p * 1000000 + static_cast<int>(i));
      }
    }
  }
}

class ChannelConformanceTest : public ::testing::TestWithParam<ChannelKind> {
 protected:
  std::unique_ptr<Channel<int>> Make(size_t capacity) {
    return MakeChannel(GetParam(), capacity);
  }
};

TEST_P(ChannelConformanceTest, SingleItemFifoIdentity) {
  auto q = Make(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q->Push(i));
  EXPECT_EQ(q->size(), 10u);
  std::vector<int> out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(q->PopBatch(1, &out), 1u);
    EXPECT_EQ(out.back(), i);
  }
  EXPECT_EQ(q->size(), 0u);
  // No pop found the channel empty.
  EXPECT_EQ(q->EmptyPopFraction(), 0.0);
}

TEST_P(ChannelConformanceTest, PushBatchPopBatchPreserveFifoOrder) {
  auto q = Make(16);
  std::vector<int> in(10);
  std::iota(in.begin(), in.end(), 0);
  ASSERT_TRUE(q->PushBatch(in));
  std::vector<int> out;
  EXPECT_EQ(q->PopBatch(10, &out), 10u);
  EXPECT_EQ(out, in);
}

TEST_P(ChannelConformanceTest, PushBlocksWhileFullUntilPop) {
  auto q = Make(2);
  const size_t cap = q->capacity();  // SPSC rounds up to a power of two
  for (size_t i = 0; i < cap; ++i) ASSERT_TRUE(q->Push(static_cast<int>(i)));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q->Push(99));
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  std::vector<int> out;
  ASSERT_EQ(q->PopBatch(1, &out), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q->size(), cap);
}

TEST_P(ChannelConformanceTest, PushBatchLargerThanCapacityChunks) {
  // A batch bigger than the channel must be delivered in full once a
  // consumer drains; PushBatch chunks at capacity internally.
  auto q = Make(4);
  std::vector<int> in(32);
  std::iota(in.begin(), in.end(), 0);
  std::thread producer([&] { EXPECT_TRUE(q->PushBatch(in)); });
  std::vector<int> out;
  while (out.size() < in.size()) {
    q->PopBatch(8, &out);
  }
  producer.join();
  EXPECT_EQ(out, in);
}

TEST_P(ChannelConformanceTest, PopBatchReturnsAtMostMax) {
  auto q = Make(16);
  ASSERT_TRUE(q->PushBatch({1, 2, 3, 4, 5}));
  std::vector<int> out;
  EXPECT_EQ(q->PopBatch(3, &out), 3u);
  EXPECT_EQ(q->PopBatch(100, &out), 2u);  // rest, without blocking
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(ChannelConformanceTest, PopBatchBlocksUntilPush) {
  auto q = Make(4);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q->PopBatch(4, &out), 1u);
    popped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  ASSERT_TRUE(q->Push(7));
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST_P(ChannelConformanceTest, CancelReleasesProducerBlockedInPush) {
  auto q = Make(2);
  const size_t cap = q->capacity();
  for (size_t i = 0; i < cap; ++i) ASSERT_TRUE(q->Push(static_cast<int>(i)));
  std::thread producer([&] { EXPECT_FALSE(q->Push(99)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q->Cancel();
  producer.join();
  // The items pushed before the cancel drain in order, then 0.
  std::vector<int> out;
  while (q->PopBatch(4, &out) != 0) {
  }
  ASSERT_EQ(out.size(), cap);
  for (size_t i = 0; i < cap; ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST_P(ChannelConformanceTest, CancelUnblocksBatchWaitersAndDrains) {
  auto q = Make(2);
  ASSERT_TRUE(q->PushBatch({1, 2}));
  // Producer blocked mid-chunk (batch > capacity), consumer drains
  // after cancel.
  std::thread producer([&] { EXPECT_FALSE(q->PushBatch({3, 4, 5, 6, 7})); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q->Cancel();
  producer.join();
  // Whatever made it in before cancellation drains in order, then 0.
  std::vector<int> out;
  while (q->PopBatch(4, &out) != 0) {
  }
  ASSERT_GE(out.size(), 2u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
  EXPECT_FALSE(q->PushBatch({9}));
  EXPECT_FALSE(q->Push(9));
  EXPECT_TRUE(q->cancelled());
}

TEST_P(ChannelConformanceTest, CancelUnblocksBlockedConsumer) {
  auto q = Make(4);
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q->PopBatch(4, &out), 0u);
    EXPECT_EQ(q->PopBatch(4, &out), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q->Cancel();
  consumer.join();
}

TEST_P(ChannelConformanceTest, EmptyPopFractionCountsElementsNotBatches) {
  // A consumer starved on every batched claim must report the same
  // starvation fraction a per-element consumer would (~0.5), not
  // 1/batch_size of it.
  auto q = Make(8);
  std::thread consumer([&] {
    std::vector<int> out;
    while (out.size() < 8) {
      if (q->PopBatch(4, &out) == 0) break;
    }
  });
  for (int round = 0; round < 2; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q->PushBatch({1, 2, 3, 4}));
  }
  consumer.join();
  EXPECT_NEAR(q->EmptyPopFraction(), 0.5, 0.26);
}

TEST_P(ChannelConformanceTest, ExactlyOnceStress) {
  // Topology-legal thread counts: SPSC gets exactly one thread per
  // side, MPMC gets four.
  const bool spsc = GetParam() == ChannelKind::kSpsc;
  auto q = Make(32);
  StressExactlyOnce(*q, spsc ? 1 : 4, spsc ? 1 : 4,
                    /*per_producer=*/spsc ? 8000 : 2000);
}

TEST_P(ChannelConformanceTest, StressWithRacingCancellation) {
  const bool spsc = GetParam() == ChannelKind::kSpsc;
  const ChannelKind kind = GetParam();
  StressRacingCancellation([kind] { return MakeChannel(kind, 8); },
                           spsc ? 1 : 3, spsc ? 1 : 3, /*rounds=*/8);
}

INSTANTIATE_TEST_SUITE_P(AllChannels, ChannelConformanceTest,
                         ::testing::Values(ChannelKind::kMpmc,
                                           ChannelKind::kSpsc),
                         [](const ::testing::TestParamInfo<ChannelKind>& info) {
                           return info.param == ChannelKind::kSpsc
                                      ? "SpscRing"
                                      : "BoundedQueue";
                         });

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(100).capacity(), 128u);
}

TEST(SpscRingTest, TortureRandomizedBatchSizes) {
  // One producer / one consumer hammer the ring with randomized batch
  // sizes (often above capacity), the producer mixing single-item and
  // batched pushes, across small capacities that force constant
  // wrap-around and park/unpark traffic. The full FIFO sequence must
  // survive intact.
  for (const size_t capacity : {2u, 3u, 8u}) {
    SpscRing<int> ring(capacity);
    constexpr int kTotal = 50000;
    std::thread producer([&ring] {
      std::mt19937 rng(42);
      std::uniform_int_distribution<int> batch_dist(1, 19);
      int next = 0;
      while (next < kTotal) {
        if (batch_dist(rng) == 1) {
          ASSERT_TRUE(ring.Push(next++));
          continue;
        }
        std::vector<int> batch;
        const int n = std::min(batch_dist(rng), kTotal - next);
        for (int i = 0; i < n; ++i) batch.push_back(next++);
        ASSERT_TRUE(ring.PushBatch(std::move(batch)));
      }
    });
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> max_dist(1, 23);
    std::vector<int> seen;
    seen.reserve(kTotal);
    while (seen.size() < kTotal) {
      ASSERT_GT(ring.PopBatch(max_dist(rng), &seen), 0u);
    }
    producer.join();
    ASSERT_EQ(seen.size(), static_cast<size_t>(kTotal));
    for (int i = 0; i < kTotal; ++i) {
      ASSERT_EQ(seen[i], i) << "capacity " << capacity;
    }
  }
}

}  // namespace
}  // namespace plumber
