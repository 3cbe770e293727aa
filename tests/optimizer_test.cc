// End-to-end optimizer tests: trace -> plan -> rewrite -> faster.
#include "src/core/optimizer.h"

#include <gtest/gtest.h>

#include "src/core/rewriter.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::PipelineTestEnv;

GraphDef MisconfiguredGraph() {
  // A decode-heavy pipeline at parallelism 1 with no prefetch: exactly
  // the "misconfigured" starting point of the paper's evaluation.
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

// An optimizer that traces over `env` and plans for `machine`.
PlumberOptimizer MakeOptimizer(PipelineTestEnv& env, bool cache = false,
                               const MachineSpec& machine = TestMachine()) {
  OptimizeOptions options;
  options.trace_seconds = 0.25;
  options.schedule =
      cache ? kDefaultPassSchedule : "parallelism,prefetch,parallelism";
  return PlumberOptimizer(options, env.OptionsFor(machine), machine);
}

double MeasureRate(PipelineTestEnv& env, const GraphDef& graph,
                   double seconds = 0.4) {
  auto pipeline =
      std::move(Pipeline::Create(graph, env.Options())).value();
  RunOptions ropts;
  ropts.max_seconds = seconds;
  const RunResult result = RunPipeline(*pipeline, ropts);
  pipeline->Cancel();
  return result.batches_per_second;
}

TEST(OptimizerTest, ParallelismPassSpeedsUpMisconfiguredPipeline) {
  PipelineTestEnv env(4, 200, 64);
  PlumberOptimizer optimizer = MakeOptimizer(env);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  // The expensive map must have been parallelized.
  EXPECT_GT(*rewriter::GetParallelism(result->graph, "expensive"), 2);
  // Root must now be a prefetch.
  EXPECT_EQ(result->graph.FindNode(result->graph.output())->op, "prefetch");
  // Measured speedup: at least 2x on 8 cores for a 200us/element map.
  double naive_rate = 0, tuned_rate = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    naive_rate = MeasureRate(env, MisconfiguredGraph());
    tuned_rate = MeasureRate(env, result->graph);
    return tuned_rate > naive_rate * 2;
  })) << "tuned=" << tuned_rate << " naive=" << naive_rate;
}

TEST(OptimizerTest, LpPlanPredictsWithinFactorFour) {
  // Paper observation 4: the LP bound holds within a small constant
  // factor (2-4x) of the observed optimized rate.
  PipelineTestEnv env(4, 200, 64);
  PlumberOptimizer optimizer = MakeOptimizer(env);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok());
  double measured = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    measured = MeasureRate(env, result->graph);
    return result->plan.predicted_rate > measured / 4 &&
           result->plan.predicted_rate < measured * 4;
  })) << "predicted=" << result->plan.predicted_rate
      << " measured=" << measured;
}

TEST(OptimizerTest, CachePassInsertsCacheWhenItFits) {
  PipelineTestEnv env(2, 40, 64);
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 10 << 20;  // everything fits
  PlumberOptimizer optimizer = MakeOptimizer(env, /*cache=*/true, machine);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cache.feasible);
  EXPECT_TRUE(rewriter::HasOp(result->graph, "cache"));
  // Cache goes below the infinite shuffle+repeat, after the expensive
  // map (closest cacheable node to the root).
  EXPECT_EQ(result->cache.node, "expensive");
  // The stages behind the cache stay unstamped at parallelism 1; they
  // escape no arbitration, so stamping raises no partial-trace warning.
  for (const std::string& line : result->log) {
    EXPECT_EQ(line.find("WARNING"), std::string::npos) << line;
  }
}

TEST(OptimizerTest, NoCacheWhenMemoryTooSmall) {
  PipelineTestEnv env(2, 40, 64);
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 64;  // nothing fits
  PlumberOptimizer optimizer = MakeOptimizer(env, /*cache=*/true, machine);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->cache.feasible);
  EXPECT_FALSE(rewriter::HasOp(result->graph, "cache"));
}

TEST(OptimizerTest, CachedPipelineBeatsUncachedSteadyState) {
  PipelineTestEnv env(2, 40, 64);
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 10 << 20;
  PlumberOptimizer optimizer = MakeOptimizer(env, /*cache=*/true, machine);
  auto cached = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cached->cache.feasible);

  PlumberOptimizer no_cache = MakeOptimizer(env, /*cache=*/false);
  auto uncached = no_cache.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(uncached.ok());

  // Steady-state: run past the first epoch so the cache is warm.
  double cached_rate = 0, uncached_rate = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    cached_rate = MeasureRate(env, cached->graph, 0.8);
    uncached_rate = MeasureRate(env, uncached->graph, 0.8);
    return cached_rate > uncached_rate * 1.3;
  })) << "cached=" << cached_rate << " uncached=" << uncached_rate;
}

TEST(OptimizerTest, PickBestPrefersFasterVariant) {
  PipelineTestEnv env(4, 100, 64);
  // Variant 0 runs the 200us map; variant 1 the ~free noop map.
  GraphBuilder b0;
  auto n0 = b0.Interleave("interleave", b0.FileList("files", "data/"), 2, 1);
  n0 = b0.Map("work", n0, "slow");
  n0 = b0.ShuffleAndRepeat("sr", n0, 16);
  n0 = b0.Batch("batch", n0, 5);
  GraphDef slow_variant = std::move(b0.Build(n0)).value();

  GraphBuilder b1;
  auto n1 = b1.Interleave("interleave", b1.FileList("files", "data/"), 2, 1);
  n1 = b1.Map("work", n1, "noop");
  n1 = b1.ShuffleAndRepeat("sr", n1, 16);
  n1 = b1.Batch("batch", n1, 5);
  GraphDef fast_variant = std::move(b1.Build(n1)).value();

  // With only 2 cores the 200us map stays the bottleneck even after
  // the LP parallelizes it (max ~2k batches/s), while the noop variant
  // is source-bound at roughly twice that — a robust margin.
  MachineSpec machine = TestMachine();
  machine.num_cores = 2;
  PlumberOptimizer optimizer = MakeOptimizer(env, /*cache=*/false, machine);
  auto result = optimizer.PickBest({slow_variant, fast_variant});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->picked_variant, 1);
}

TEST(OptimizerTest, PickBestComparesFrozenCachesAtServeRate) {
  // Variant 0 maps at 150us per element; variant 1 maps at 200us but
  // caches the result. PickBest warms and freezes each variant on one
  // iterator, so the cached variant must be measured serving its
  // frozen fill, not still filling it through the slower map.
  Session session;
  UdfSpec fast;
  fast.name = "map_150us";
  fast.cost_ns_per_element = 150e3;
  ASSERT_TRUE(session.RegisterUdf(fast).ok());
  UdfSpec slow;
  slow.name = "map_200us";
  slow.cost_ns_per_element = 200e3;
  ASSERT_TRUE(session.RegisterUdf(slow).ok());
  const auto variant = [&](const std::string& udf, bool cache) {
    Flow flow = session.Range(100000).Map(udf);
    if (cache) flow = flow.Cache();
    return std::move(flow.Repeat().Graph()).value();
  };
  OptimizeOptions options;
  options.trace_seconds = 0.1;
  options.schedule = "";
  auto result = session.OptimizeBest(
      {variant("map_150us", false), variant("map_200us", true)}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->picked_variant, 1);
}

TEST(OptimizerTest, PickBestLogsFailedVariants) {
  PipelineTestEnv env(4, 100, 64);
  GraphDef good = MisconfiguredGraph();
  // A variant that cannot be instantiated (unknown UDF): formerly
  // silently skipped, now recorded in the winner's log.
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 1);
  n = b.Map("broken", n, "no_such_udf");
  n = b.Batch("batch", n, 5);
  GraphDef bad = std::move(b.Build(n)).value();

  PlumberOptimizer optimizer = MakeOptimizer(env);
  auto result = optimizer.PickBest({bad, good});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->picked_variant, 1);
  bool logged = false;
  for (const std::string& line : result->log) {
    if (line.find("variant 0") != std::string::npos &&
        line.find("no_such_udf") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged) << "failed variant not recorded in log";
}

TEST(OptimizerTest, PickBestReturnsRichErrorWhenAllVariantsFail) {
  PipelineTestEnv env(4, 100, 64);
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 1);
  n = b.Map("broken", n, "no_such_udf");
  n = b.Batch("batch", n, 5);
  GraphDef bad = std::move(b.Build(n)).value();

  PlumberOptimizer optimizer = MakeOptimizer(env);
  auto result = optimizer.PickBest({bad, bad});
  ASSERT_FALSE(result.ok());
  // The error names every variant and the underlying cause, not just
  // "no variant optimized successfully".
  EXPECT_NE(result.status().message().find("variant 0"), std::string::npos)
      << result.status();
  EXPECT_NE(result.status().message().find("variant 1"), std::string::npos);
  EXPECT_NE(result.status().message().find("no_such_udf"), std::string::npos);
}

TEST(OptimizerTest, OptimizationIsIdempotentOnTunedPipeline) {
  PipelineTestEnv env(4, 200, 64);
  PlumberOptimizer optimizer = MakeOptimizer(env);
  auto first = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(first.ok());
  auto second = optimizer.Optimize(first->graph);
  ASSERT_TRUE(second.ok());
  double r1 = 0, r2 = 0;
  // Re-optimizing must not destroy performance.
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    r1 = MeasureRate(env, first->graph);
    r2 = MeasureRate(env, second->graph);
    return r2 > r1 * 0.6;
  })) << "first=" << r1 << " reoptimized=" << r2;
}

}  // namespace
}  // namespace plumber
