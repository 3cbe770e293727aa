#include "src/pipeline/runner.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::PipelineTestEnv;

std::unique_ptr<Pipeline> SlowPipeline(PipelineTestEnv& env,
                                       bool infinite = true) {
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "slow");
  if (infinite) n = b.Repeat("r", n, -1);
  n = b.Batch("batch", n, 5);
  return std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                    env.Options()))
      .value();
}

TEST(RunnerTest, MaxBatchesStopsExactly) {
  PipelineTestEnv env(2, 20, 32);
  auto pipeline = SlowPipeline(env);
  RunOptions options;
  options.max_batches = 7;
  const RunResult result = RunPipeline(*pipeline, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.batches, 7);
  EXPECT_EQ(result.elements, 35);
  EXPECT_FALSE(result.reached_end);
  EXPECT_GT(result.batches_per_second, 0);
}

TEST(RunnerTest, MaxSecondsStopsNearDeadline) {
  PipelineTestEnv env(2, 20, 32);
  auto pipeline = SlowPipeline(env);
  RunOptions options;
  options.max_seconds = 0.2;
  double wall_seconds = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    const RunResult result = RunPipeline(*pipeline, options);
    EXPECT_TRUE(result.status.ok());
    wall_seconds = result.wall_seconds;
    return std::abs(wall_seconds - 0.2) <= 0.1;
  })) << "wall_seconds=" << wall_seconds;
}

TEST(RunnerTest, ReachesEndOfFiniteData) {
  PipelineTestEnv env(2, 20, 32);
  auto pipeline = SlowPipeline(env, /*infinite=*/false);
  RunOptions options;
  options.max_seconds = 10;
  const RunResult result = RunPipeline(*pipeline, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.reached_end);
  EXPECT_EQ(result.batches, 8);  // 40 records / 5
}

TEST(RunnerTest, ModelStepCapsThroughput) {
  PipelineTestEnv env(2, 20, 32);
  auto fast = SlowPipeline(env);
  RunOptions uncapped;
  uncapped.max_seconds = 0.3;
  const RunResult free_run = RunPipeline(*fast, uncapped);

  auto capped_pipeline = SlowPipeline(env);
  RunOptions capped = uncapped;
  capped.model_step_seconds = 0.05;  // at most ~20 batches/sec
  const RunResult capped_run = RunPipeline(*capped_pipeline, capped);
  EXPECT_LT(capped_run.batches_per_second, 25.0);
  EXPECT_LT(capped_run.batches_per_second,
            free_run.batches_per_second + 25.0);
}

TEST(RunnerTest, WarmupBatchesExcluded) {
  PipelineTestEnv env(2, 20, 32);
  auto pipeline = SlowPipeline(env);
  RunOptions options;
  options.max_batches = 5;
  options.warmup_batches = 3;
  const RunResult result = RunPipeline(*pipeline, options);
  EXPECT_EQ(result.batches, 5);  // measured batches only
}

TEST(RunnerTest, NextLatencyMeasured) {
  PipelineTestEnv env(2, 20, 32);
  auto pipeline = SlowPipeline(env);
  RunOptions options;
  options.max_batches = 5;
  const RunResult result = RunPipeline(*pipeline, options);
  // 5 elements/batch x 200us = >=1ms per batch without parallelism.
  EXPECT_GT(result.mean_next_latency_seconds, 0.0005);
}

TEST(RunnerTest, RunIteratorKeepsState) {
  PipelineTestEnv env(2, 20, 32);
  auto pipeline = SlowPipeline(env, /*infinite=*/false);
  auto iterator = std::move(pipeline->MakeIterator()).value();
  RunOptions options;
  options.max_batches = 3;
  const RunResult first = RunIterator(iterator.get(), options);
  EXPECT_EQ(first.batches, 3);
  const RunResult rest = RunIterator(iterator.get(), options);
  EXPECT_EQ(rest.batches, 3);
  RunOptions drain;
  drain.max_seconds = 5;
  const RunResult last = RunIterator(iterator.get(), drain);
  EXPECT_EQ(first.batches + rest.batches + last.batches, 8);
  EXPECT_TRUE(last.reached_end);
}

}  // namespace
}  // namespace plumber
