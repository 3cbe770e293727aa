// Tests for ParallelFor.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

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

}  // namespace
}  // namespace plumber
