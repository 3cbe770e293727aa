#include "src/util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace plumber {

void ParallelFor(int n, int parallelism, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  parallelism = std::clamp(parallelism, 1, n);
  if (parallelism == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(parallelism - 1);
  std::atomic<int> next{0};
  auto body = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  for (int t = 1; t < parallelism; ++t) workers.emplace_back(body);
  body();
  for (auto& w : workers) w.join();
}

}  // namespace plumber
