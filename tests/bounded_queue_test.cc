// Stress coverage for BoundedQueue's batched push/pop — the handoff
// primitive of multi-element worker-pool claims. Exercises batch chunking
// over capacity, multi-producer/multi-consumer interleaving, and
// cancellation racing mid-stream; run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "src/util/bounded_queue.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

TEST(BoundedQueueBatchTest, PushBatchPopBatchPreserveFifoOrder) {
  BoundedQueue<int> q(16);
  std::vector<int> in(10);
  std::iota(in.begin(), in.end(), 0);
  ASSERT_TRUE(q.PushBatch(in));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(10, &out), 10u);
  EXPECT_EQ(out, in);
}

TEST(BoundedQueueBatchTest, PushBatchLargerThanCapacityChunks) {
  // A batch bigger than the queue must be delivered in full once a
  // consumer drains; PushBatch chunks at capacity internally.
  BoundedQueue<int> q(4);
  std::vector<int> in(32);
  std::iota(in.begin(), in.end(), 0);
  std::thread producer([&] { EXPECT_TRUE(q.PushBatch(in)); });
  std::vector<int> out;
  while (out.size() < in.size()) {
    q.PopBatch(8, &out);
  }
  producer.join();
  EXPECT_EQ(out, in);
}

TEST(BoundedQueueBatchTest, RaiseCapacityReleasesBlockedProducer) {
  // A producer blocked on the old bound proceeds once a worker pool
  // deepens the queue, with no consumer draining; the bound never
  // shrinks.
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.PushBatch({0, 1}));
  std::thread producer([&] { EXPECT_TRUE(q.PushBatch({2, 3, 4})); });
  q.RaiseCapacity(8);
  producer.join();
  q.RaiseCapacity(4);
  EXPECT_EQ(q.capacity(), 8u);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(8, &out), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BoundedQueueBatchTest, PopBatchReturnsAtMostMax) {
  BoundedQueue<int> q(16);
  ASSERT_TRUE(q.PushBatch({1, 2, 3, 4, 5}));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(3, &out), 3u);
  EXPECT_EQ(q.PopBatch(100, &out), 2u);  // rest, without blocking
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(BoundedQueueBatchTest, PopBatchBlocksUntilPush) {
  BoundedQueue<int> q(4);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(q.PopBatch(4, &out), 1u);
    popped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  ASSERT_TRUE(q.Push(7));
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(BoundedQueueBatchTest, CancelUnblocksBatchWaitersAndDrains) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.PushBatch({1, 2}));
  // Producer blocked mid-chunk (batch > capacity), consumer will drain
  // after cancel.
  std::thread producer([&] { EXPECT_FALSE(q.PushBatch({3, 4, 5, 6})); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Cancel();
  producer.join();
  // Whatever made it in before cancellation drains in order, then 0.
  std::vector<int> out;
  while (q.PopBatch(4, &out) != 0) {
  }
  ASSERT_GE(out.size(), 2u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
  EXPECT_FALSE(q.PushBatch({9}));
}

TEST(BoundedQueueBatchTest, EmptyPopFractionCountsElementsNotBatches) {
  // A consumer starved on every batched claim must report the same
  // starvation fraction a per-element consumer would (~0.5), not
  // 1/batch_size of it.
  BoundedQueue<int> q(8);
  std::thread consumer([&] {
    std::vector<int> out;
    while (out.size() < 8) {
      if (q.PopBatch(4, &out) == 0) break;
    }
  });
  for (int round = 0; round < 2; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.PushBatch({1, 2, 3, 4}));
  }
  consumer.join();
  EXPECT_NEAR(q.EmptyPopFraction(), 0.5, 0.26);
}

TEST(BoundedQueueBatchTest, MultiProducerMultiConsumerStress) {
  // 4 producers push batches of varying sizes, 4 consumers pop batches;
  // every pushed value must arrive exactly once. (Shared helper, also
  // run against SpscRing by tests/channel_test.cc.)
  BoundedQueue<int> q(32);
  testing_util::ChannelStressExactlyOnce(q, /*producers=*/4,
                                         /*consumers=*/4,
                                         /*per_producer=*/2000);
}

TEST(BoundedQueueBatchTest, StressWithRacingCancellation) {
  // Producers and consumers racing a cancel must neither deadlock nor
  // duplicate items: items popped are a prefix-per-producer of what
  // was pushed.
  testing_util::ChannelStressRacingCancellation(
      [] { return std::make_unique<BoundedQueue<int>>(8); },
      /*producers=*/3, /*consumers=*/3, /*rounds=*/8);
}

}  // namespace
}  // namespace plumber
