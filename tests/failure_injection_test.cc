// Failure-injection suite: the engine and the optimizer must degrade
// with clear errors, not hangs or crashes, when the world misbehaves —
// cancellation mid-flight, memory budgets blown by a cache, missing
// data, malformed programs, unknown UDFs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <thread>

#include "src/core/optimizer.h"
#include "src/core/rewriter.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::CountOwnThreads;
using testing_util::PipelineTestEnv;
using testing_util::PollUntil;

GraphDef InfiniteGraph(const std::string& udf = "noop") {
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 2);
  n = b.Map("work", n, udf, /*parallelism=*/4);
  n = b.ShuffleAndRepeat("sr", n, 16);
  n = b.Batch("batch", n, 5);
  n = b.Prefetch("prefetch", n, 4);
  return std::move(b.Build(n)).value();
}

TEST(FailureInjectionTest, CancelUnblocksConsumerOnInfinitePipeline) {
  PipelineTestEnv env(4, 50, 64);
  auto pipeline =
      std::move(Pipeline::Create(InfiniteGraph("slow"), env.Options()))
          .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();

  std::atomic<bool> done{false};
  std::thread consumer([&] {
    Element e;
    bool end = false;
    // Drain until cancellation surfaces as end-of-stream or an error.
    while (iterator->GetNext(&e, &end).ok() && !end) {
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  pipeline->Cancel();
  for (int i = 0; i < 400 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(done.load()) << "consumer still blocked 4s after Cancel()";
  if (!done.load()) consumer.detach();  // avoid hanging the suite
  else consumer.join();
}

// InfiniteGraph's stages with the repeat moved below the map, so the
// map pool is built once, at MakeIterator, and can be parked after it
// spawned. The shuffle's first fill claims 64 elements from the map
// past a single cancellation check.
GraphDef ParkableInfiniteGraph() {
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 2);
  n = b.Repeat("repeat", n);
  n = b.Map("work", n, "slow", /*parallelism=*/4);
  n = b.Shuffle("shuffle", n, 64);
  n = b.Batch("batch", n, 5);
  n = b.Prefetch("prefetch", n, 4);
  return std::move(b.Build(n)).value();
}

TEST(FailureInjectionTest, CancelUnblocksConsumerOnParkedPool) {
  // The infinite pipeline with its map pool parked at 1 of 4 workers by
  // a governor target. Each round cancels at a random sub-millisecond
  // offset, mostly while the shuffle's first fill waits on the one
  // running worker: that worker pushes, sees the cancel at its next
  // claim boundary and leaves. Parked workers wait with no timeout, so
  // its exit must release them for the end sentinel to reach the
  // consumer, and teardown must join every worker.
  PipelineTestEnv env(4, 50, 64);
  const GraphDef graph = ParkableInfiniteGraph();
  const int baseline_threads = CountOwnThreads();
  std::mt19937 rng(17);
  std::uniform_int_distribution<int> offset_us(0, 999);
  for (int round = 0; round < 200; ++round) {
    PipelineOptions options = env.Options();
    options.governor = std::make_shared<ParallelismGovernor>();
    auto pipeline = std::move(Pipeline::Create(graph, options)).value();
    auto iterator = std::move(pipeline->MakeIterator()).value();
    options.governor->SetTarget("work", 1);
    std::promise<void> returned;
    std::future<void> consumer_returned = returned.get_future();
    std::thread consumer([&] {
      Element e;
      bool end = false;
      while (iterator->GetNext(&e, &end).ok() && !end) {
      }
      returned.set_value();
    });
    std::this_thread::sleep_for(std::chrono::microseconds(offset_us(rng)));
    pipeline->Cancel();
    if (consumer_returned.wait_for(std::chrono::seconds(4)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "round " << round << ": consumer still blocked 4s "
                    << "after Cancel()";
      // Leak rather than destroy a pipeline a blocked thread still uses.
      consumer.detach();
      iterator.release();
      pipeline.release();
      return;
    }
    consumer.join();
  }
  // No worker outlives its pool (a sanitizer runtime thread present at
  // the baseline may have exited since, so the count may also drop).
  // A joined thread can linger in /proc/self/task for a moment after
  // join() returns, so poll; a leaked thread never leaves.
  EXPECT_TRUE(PollUntil(
      [&] { return CountOwnThreads() <= baseline_threads; }, 10))
      << "threads before: " << baseline_threads
      << " after: " << CountOwnThreads();
}

TEST(FailureInjectionTest, CancelDuringDestructionIsSafe) {
  // Destroying a parallel pipeline while workers are mid-element must
  // join cleanly (no deadlock, no use-after-free under ASAN).
  PipelineTestEnv env(4, 50, 64);
  for (int round = 0; round < 5; ++round) {
    auto pipeline =
        std::move(Pipeline::Create(InfiniteGraph("slow"), env.Options()))
            .value();
    auto iterator = std::move(pipeline->MakeIterator()).value();
    Element e;
    bool end = false;
    ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
    pipeline->Cancel();
    // iterator + pipeline destroyed here with workers in flight.
  }
}

TEST(FailureInjectionTest, CacheOverBudgetSurfacesResourceExhausted) {
  PipelineTestEnv env(4, 50, 64);
  GraphDef graph = InfiniteGraph();
  ASSERT_TRUE(rewriter::InjectCache(&graph, "work").ok());
  PipelineOptions options = env.Options(/*memory_budget=*/256);
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  Status status = OkStatus();
  for (int i = 0; i < 10000 && status.ok() && !end; ++i) {
    status = iterator->GetNext(&e, &end);
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
}

TEST(FailureInjectionTest, MissingFilePrefixEndsImmediately) {
  PipelineTestEnv env(4, 50, 64);
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "nonexistent/"),
                        2, 1);
  n = b.Batch("batch", n, 5, /*drop_remainder=*/false);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
  EXPECT_TRUE(end);
}

TEST(FailureInjectionTest, UnknownUdfFailsAtInstantiation) {
  PipelineTestEnv env(4, 50, 64);
  GraphDef graph = InfiniteGraph("no_such_udf");
  auto pipeline = Pipeline::Create(graph, env.Options());
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kNotFound)
      << pipeline.status();
}

TEST(FailureInjectionTest, UnknownOpFailsAtInstantiation) {
  PipelineTestEnv env(4, 50, 64);
  GraphDef graph;
  NodeDef node;
  node.name = "mystery";
  node.op = "quantum_shuffle";
  ASSERT_TRUE(graph.AddNode(node).ok());
  graph.SetOutput("mystery");
  auto pipeline = Pipeline::Create(graph, env.Options());
  EXPECT_FALSE(pipeline.ok());
}

TEST(FailureInjectionTest, DanglingInputFailsValidation) {
  GraphDef graph;
  NodeDef node;
  node.name = "batch";
  node.op = "batch";
  node.inputs = {"ghost"};
  ASSERT_TRUE(graph.AddNode(node).ok());
  graph.SetOutput("batch");
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(FailureInjectionTest, OptimizerSurvivesUntraceablePipeline) {
  // A pipeline over a missing prefix produces an empty trace; the
  // optimizer must return a usable (if unoptimized) result or a clean
  // error — never crash.
  PipelineTestEnv env(4, 50, 64);
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "nonexistent/"),
                        2, 1);
  n = b.Repeat("repeat", n);
  n = b.Batch("batch", n, 5);
  GraphDef graph = std::move(b.Build(n)).value();

  const MachineSpec machine = MachineSpec::SetupA();
  OptimizeOptions options;
  options.trace_seconds = 0.05;
  PlumberOptimizer optimizer(options, env.OptionsFor(machine), machine);
  auto result = optimizer.Optimize(graph);
  if (result.ok()) {
    EXPECT_TRUE(result->graph.Validate().ok());
  }
}

TEST(FailureInjectionTest, RewriterRejectsUnknownNodes) {
  GraphDef graph = InfiniteGraph();
  EXPECT_FALSE(rewriter::SetParallelism(&graph, "ghost", 4).ok());
  EXPECT_FALSE(rewriter::InjectCache(&graph, "ghost").ok());
  EXPECT_FALSE(rewriter::GetParallelism(graph, "ghost").ok());
}

TEST(FailureInjectionTest, ZeroRecordFileIsHandled) {
  PipelineTestEnv env(1, 1, 16);
  // Overwrite with an empty record file.
  ASSERT_TRUE(env.fs.CreateRecordFile("empty/f0", 1, {}).ok());
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "empty/"), 2, 1);
  n = b.Batch("batch", n, 4, /*drop_remainder=*/false);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
  EXPECT_TRUE(end);
}

}  // namespace
}  // namespace plumber
