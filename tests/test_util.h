// Shared helpers for pipeline-level tests.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/core/machine.h"
#include "src/fleet/arrival_trace.h"
#include "src/pipeline/graph_builder.h"
#include "src/pipeline/pipeline.h"
#include "src/pipeline/runner.h"
#include "src/util/channel.h"

namespace plumber {
namespace testing_util {

// A self-contained environment: filesystem with `num_files` record
// files of `records_per_file` x `record_bytes` under "data/", plus a
// UDF registry with a few standard test UDFs:
//   noop          1:1, negligible cost
//   double_size   ratio 2.0
//   slow          200us/element
//   rand_aug      randomized
//   keep_half     filter with keep_fraction 0.5
//   keep_all      filter with keep_fraction 1.0
struct PipelineTestEnv {
  SimFilesystem fs;
  UdfRegistry udfs;

  explicit PipelineTestEnv(int num_files = 4, int records_per_file = 25,
                           uint64_t record_bytes = 64) {
    for (int f = 0; f < num_files; ++f) {
      std::vector<uint64_t> sizes(records_per_file, record_bytes);
      EXPECT_TRUE(fs.CreateRecordFile("data/f" + std::to_string(f), f + 1,
                                      std::move(sizes))
                      .ok());
    }
    auto add = [&](UdfSpec spec) {
      EXPECT_TRUE(udfs.Register(std::move(spec)).ok());
    };
    UdfSpec noop;
    noop.name = "noop";
    add(noop);
    UdfSpec double_size;
    double_size.name = "double_size";
    double_size.size_ratio = 2.0;
    add(double_size);
    UdfSpec slow;
    slow.name = "slow";
    slow.cost_ns_per_element = 200e3;
    add(slow);
    UdfSpec rand_aug;
    rand_aug.name = "rand_aug";
    rand_aug.accesses_random_seed = true;
    add(rand_aug);
    UdfSpec keep_half;
    keep_half.name = "keep_half";
    keep_half.keep_fraction = 0.5;
    add(keep_half);
    UdfSpec keep_all;
    keep_all.name = "keep_all";
    add(keep_all);
  }

  PipelineOptions Options(uint64_t memory_budget = 0) {
    PipelineOptions options;
    options.fs = &fs;
    options.udfs = &udfs;
    options.memory_budget_bytes = memory_budget;
    return options;
  }

  // The options a Session on `machine` would derive: its core speed,
  // memory budget and scratch tier over this environment.
  PipelineOptions OptionsFor(const MachineSpec& machine) {
    PipelineOptions options = Options();
    ApplyMachine(machine, &options);
    return options;
  }

  int total_records() const {
    int total = 0;
    for (const auto& name : fs.List("data/")) {
      total += static_cast<int>(fs.FindMeta(name)->NumRecords());
    }
    return total;
  }
};

// Retries a timing-sensitive check, returning true as soon as one
// attempt passes. Wall-clock rate comparisons are legitimate contracts
// but a single sample can lose to scheduler noise on shared CI hosts;
// retrying the whole measurement keeps the threshold intact (never
// weaken the threshold itself to make a test pass).
template <typename Fn>
inline bool EventuallyTrue(Fn&& check, int attempts = 3) {
  for (int i = 0; i < attempts; ++i) {
    if (check()) return true;
  }
  return false;
}

// Polls a condition every 10 ms until it holds or `seconds` pass; true
// if it held. For state that changes on other threads (executor
// scheduling, thread teardown) and has no event to wait on.
inline bool PollUntil(const std::function<bool()>& cond,
                      double seconds = 20) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

// This process's live thread count, from /proc/self/task.
inline int CountOwnThreads() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

// Drains up to `limit` elements from a pipeline (0 = until end).
inline std::vector<Element> Drain(Pipeline& pipeline, int64_t limit = 0) {
  std::vector<Element> out;
  auto it_or = pipeline.MakeIterator();
  EXPECT_TRUE(it_or.ok()) << it_or.status();
  if (!it_or.ok()) return out;
  auto iterator = std::move(it_or).value();
  Element e;
  bool end = false;
  while (limit == 0 || static_cast<int64_t>(out.size()) < limit) {
    const Status s = iterator->GetNext(&e, &end);
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok() || end) break;
    out.push_back(std::move(e));
  }
  return out;
}

// Sorted multiset of element byte sizes — an order-insensitive
// fingerprint for comparing pipeline outputs.
inline std::vector<size_t> SizeFingerprint(const std::vector<Element>& v) {
  std::vector<size_t> sizes;
  sizes.reserve(v.size());
  for (const auto& e : v) sizes.push_back(e.TotalBytes());
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

// Byte-exact element-for-element comparison (not just a fingerprint).
inline void ExpectIdenticalOutput(const std::vector<Element>& a,
                                  const std::vector<Element>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].components.size(), b[i].components.size()) << "elem " << i;
    for (size_t c = 0; c < a[i].components.size(); ++c) {
      ASSERT_EQ(a[i].components[c], b[i].components[c])
          << "elem " << i << " component " << c;
    }
  }
}

// Field-by-field equality of two arrival traces' events.
inline bool SameEvents(const fleet::ArrivalTrace& a,
                       const fleet::ArrivalTrace& b) {
  if (a.events.size() != b.events.size()) return false;
  for (size_t i = 0; i < a.events.size(); ++i) {
    const fleet::ArrivalEvent& x = a.events[i];
    const fleet::ArrivalEvent& y = b.events[i];
    if (x.arrival_s != y.arrival_s || x.job_class != y.job_class ||
        x.elements != y.elements || x.pinned_host != y.pinned_host) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------- channel stress
// Shared by bounded_queue_test and the channel conformance suite; run
// under TSan in CI. Pass producers = consumers = 1 for SPSC channels.

// Each producer pushes `per_producer` distinct values in mixed batch
// sizes (including above capacity); `consumers` threads drain in
// batches. Every pushed value must arrive exactly once.
inline void ChannelStressExactlyOnce(Channel<int>& channel, int producers,
                                     int consumers, int per_producer) {
  std::vector<std::thread> producer_threads;
  for (int p = 0; p < producers; ++p) {
    producer_threads.emplace_back([&channel, p, per_producer] {
      std::vector<int> batch;
      for (int i = 0; i < per_producer; ++i) {
        batch.push_back(p * per_producer + i);
        // Mix of batch sizes, including ones above capacity.
        if (batch.size() == static_cast<size_t>(1 + (i % 53))) {
          ASSERT_TRUE(channel.PushBatch(std::move(batch)));
          batch.clear();
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
inline void ChannelStressRacingCancellation(
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

}  // namespace testing_util
}  // namespace plumber
