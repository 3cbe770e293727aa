// Shared helpers for pipeline-level tests.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/core/machine.h"
#include "src/fleet/arrival_trace.h"
#include "src/pipeline/graph_builder.h"
#include "src/pipeline/pipeline.h"
#include "src/pipeline/runner.h"

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

}  // namespace testing_util
}  // namespace plumber
