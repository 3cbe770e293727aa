// Tests for ParallelFor and the bounded queue.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/util/bounded_queue.h"
#include "src/util/parallel_for.h"

namespace plumber {
namespace {

TEST(ParallelForTest, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(64, 8, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SequentialFallback) {
  int sum = 0;
  ParallelFor(10, 1, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelForTest, EmptyRange) {
  ParallelFor(0, 4, [](int) { FAIL() << "should not run"; });
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 4; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BoundedQueueTest, PushBlocksUntilSpace) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    q.Push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  q.Pop();
  t.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueueTest, CancelUnblocksProducerAndConsumer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Cancel();
  producer.join();
  // Drains remaining item, then nullopt.
  EXPECT_TRUE(q.Pop().has_value());
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, CancelledPushFails) {
  BoundedQueue<int> q(2);
  q.Cancel();
  EXPECT_FALSE(q.Push(1));
  EXPECT_FALSE(q.TryPush(1));
}

TEST(BoundedQueueTest, MpmcStress) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4, kConsumers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        if (consumed.load() >= kProducers * kPerProducer) return;
        auto v = q.TryPop();
        if (v.has_value()) {
          sum.fetch_add(*v);
          consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BoundedQueueTest, EmptyPopFractionTracksStalls) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Pop();  // not empty at pop time
  EXPECT_EQ(q.EmptyPopFraction(), 0.0);
}

}  // namespace
}  // namespace plumber
