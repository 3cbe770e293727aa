// Regression guards for the optimizer's parallelism pass: an
// "optimized" pipeline must never measure slower than the input it was
// derived from, and the plan must respect its own core budget. These
// pin the fix for the over-allocation bug where ceil(theta) rounding
// plus unconditional knob application produced tuned graphs slower
// than the misconfigured originals.
#include "src/core/optimizer.h"

#include <gtest/gtest.h>

#include "src/core/rewriter.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::PipelineTestEnv;

GraphDef MisconfiguredGraph() {
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 1);
  n = b.Map("expensive", n, "slow");
  n = b.ShuffleAndRepeat("sr", n, 16);
  n = b.Batch("batch", n, 5);
  return std::move(b.Build(n)).value();
}

MachineSpec TestMachine() {
  MachineSpec machine = MachineSpec::SetupA();
  machine.num_cores = 8;
  return machine;
}

OptimizeOptions MakeOptions() {
  OptimizeOptions options;
  options.trace_seconds = 0.25;
  // Isolate the parallelism pass: the default schedule minus cache.
  options.schedule = "parallelism,prefetch,parallelism";
  return options;
}

// An optimizer that traces over `env` and plans for `machine`.
PlumberOptimizer MakeOptimizer(PipelineTestEnv& env,
                               const OptimizeOptions& options = MakeOptions(),
                               const MachineSpec& machine = TestMachine()) {
  return PlumberOptimizer(options, env.OptionsFor(machine), machine);
}

double MeasureRate(const PipelineOptions& options, const GraphDef& graph,
                   double seconds = 0.4) {
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  RunOptions ropts;
  ropts.max_seconds = seconds;
  const RunResult result = RunPipeline(*pipeline, ropts);
  pipeline->Cancel();
  return result.batches_per_second;
}

TEST(OptimizerRegressionTest, OptimizedGraphNeverMeasuresSlowerThanInput) {
  PipelineTestEnv env(4, 200, 64);
  PlumberOptimizer optimizer = MakeOptimizer(env);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  double naive_rate = 0, tuned_rate = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    naive_rate = MeasureRate(env.Options(), MisconfiguredGraph());
    tuned_rate = MeasureRate(env.Options(), result->graph);
    return tuned_rate > naive_rate;
  })) << "Optimize() returned a slower graph: tuned=" << tuned_rate
      << " naive=" << naive_rate;
}

TEST(OptimizerRegressionTest, DefaultClaimsNeverSlowerOnCheapUdfPipeline) {
  // A cheap-UDF p=8 pipeline is engine-overhead-bound, so the worker
  // pool sizes its claims up, and the default cap must measure at least
  // as fast as element-at-a-time claims (max_claim = 1; ~2.4x in
  // bench_micro_engine).
  PipelineTestEnv env(2, 20, 64);
  GraphBuilder b;
  auto n = b.Range("src", -1);
  n = b.Map("m", n, "noop", 8);
  const GraphDef graph = std::move(b.Build(n)).value();

  PipelineOptions one_at_a_time = env.Options();
  one_at_a_time.max_claim = 1;
  double single_rate = 0, default_rate = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    single_rate = MeasureRate(one_at_a_time, graph);
    default_rate = MeasureRate(env.Options(), graph);
    return default_rate >= single_rate;
  })) << "default claims made the pipeline slower: default=" << default_rate
      << " max_claim=1: " << single_rate;
}

TEST(OptimizerRegressionTest, CachePassNeverSlowerOnDiskTier) {
  // With DRAM too small for any materialization, the cache pass falls
  // back to the SSD scratch tier. Serving the repeat epochs from
  // scratch skips the 200us/element map, so the placed graph must
  // never measure slower than the misconfigured input.
  PipelineTestEnv env(4, 200, 64);
  OptimizeOptions options = MakeOptions();
  options.schedule = "cache,parallelism";
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 1024;  // no DRAM fit
  machine.scratch = DeviceSpec::NvmeSsd();
  machine.scratch_bytes = 64ull << 20;
  PlumberOptimizer optimizer = MakeOptimizer(env, options, machine);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->cache.feasible);
  EXPECT_EQ(result->cache.tier, CacheTier::kDisk);
  ASSERT_TRUE(rewriter::HasOp(result->graph, "cache"));

  // Measure on a machine that actually meters the scratch tier.
  PipelineOptions popts = env.Options();
  popts.scratch = machine.scratch;
  popts.scratch_budget_bytes = machine.scratch_bytes;
  double naive_rate = 0, tuned_rate = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    naive_rate = MeasureRate(env.Options(), MisconfiguredGraph());
    auto pipeline =
        std::move(Pipeline::Create(result->graph, popts)).value();
    RunOptions ropts;
    ropts.max_seconds = 0.4;
    const RunResult run = RunPipeline(*pipeline, ropts);
    pipeline->Cancel();
    tuned_rate = run.batches_per_second;
    return tuned_rate >= naive_rate;
  })) << "disk-tier placement made the pipeline slower: tuned="
      << tuned_rate << " naive=" << naive_rate;
}

TEST(OptimizerRegressionTest, ShardSourcesPassNeverSlowerWhenDiskBound) {
  // A cheap-UDF pipeline behind a 50KB/s modeled disk is source-bound;
  // the shard_sources pass splits the reader across per-shard devices, so the
  // aggregate bandwidth scales with the shard count and the rewritten
  // graph must never measure slower.
  PipelineTestEnv env(4, 200, 64);
  StorageDevice disk(DeviceSpec::TokenBucketLimit(50e3));
  env.fs.set_device(&disk);

  GraphBuilder b;
  auto n = b.TfRecord("reader", b.FileList("files", "data/"));
  n = b.Map("m", n, "noop", 2);
  const GraphDef naive = std::move(b.Build(n)).value();

  OptimizeOptions options = MakeOptions();
  options.schedule = "shard_sources,parallelism";
  options.lp_options.disk_bandwidth = 50e3;
  PlumberOptimizer optimizer = MakeOptimizer(env, options);
  auto result = optimizer.Optimize(naive);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->shard_count, 2);
  ASSERT_TRUE(rewriter::HasOp(result->graph, "shard_merge"));

  double naive_rate = 0, tuned_rate = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    naive_rate = MeasureRate(env.Options(), naive);
    tuned_rate = MeasureRate(env.Options(), result->graph);
    return tuned_rate >= naive_rate;
  })) << "shard_sources made the pipeline slower: tuned=" << tuned_rate
      << " naive=" << naive_rate;
}

TEST(OptimizerRegressionTest, ParallelismPlanStaysWithinCoreBudget) {
  PipelineTestEnv env(4, 200, 64);
  PlumberOptimizer optimizer = MakeOptimizer(env);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  int total = 0;
  for (const auto& [node, parallelism] : result->plan.parallelism) {
    total += parallelism;
  }
  // ceil(theta) rounding used to hand out up to one extra core per
  // stage beyond the LP's own budget.
  EXPECT_LE(total, 8);
  // The pass still parallelizes the bottleneck aggressively.
  EXPECT_GT(*rewriter::GetParallelism(result->graph, "expensive"), 2);
}

}  // namespace
}  // namespace plumber
