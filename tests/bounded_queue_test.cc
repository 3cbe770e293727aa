// BoundedQueue's MPMC-only API: RaiseCapacity, with which a worker pool
// deepens its edge as its claims grow. The contract both edges share is
// tested in tests/channel_test.cc.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/util/bounded_queue.h"

namespace plumber {
namespace {

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

}  // namespace
}  // namespace plumber
