// Tests for the §B steady-state cache simulation ("truncating the
// cached data"): freezing a partially-filled cache must make later
// iterators serve immediately, and the optimizer's steady-state
// re-trace must release the cores of the cached-away subtree.
#include <gtest/gtest.h>

#include "src/core/optimizer.h"
#include "src/core/rewriter.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::PipelineTestEnv;

GraphDef CachedGraph() {
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 1);
  n = b.Map("work", n, "slow", 2);
  n = b.ShuffleAndRepeat("sr", n, 16);
  n = b.Batch("batch", n, 5);
  GraphDef graph = std::move(b.Build(n)).value();
  EXPECT_TRUE(rewriter::InjectCache(&graph, "work").ok());
  return graph;
}

TEST(SteadyStateTest, FreezeTruncatesAndServes) {
  PipelineTestEnv env(4, 50, 64);
  auto pipeline =
      std::move(Pipeline::Create(CachedGraph(), env.Options())).value();
  // Pull a few batches: the cache is now partially filled.
  auto filler = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(filler->GetNext(&e, &end).ok());
    ASSERT_FALSE(end);
  }
  filler.reset();
  pipeline->SimulateSteadyState();

  // A fresh iterator must serve from the truncated cache: upstream
  // stages (work, interleave) see no new completions.
  pipeline->stats().ResetAll();
  auto server = std::move(pipeline->MakeIterator()).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server->GetNext(&e, &end).ok());
    ASSERT_FALSE(end);
  }
  const IteratorStats* work = pipeline->stats().Find("work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->elements_produced(), 0u);
  const IteratorStats* cache = pipeline->stats().Find("work_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->elements_produced(), 0u);
}

TEST(SteadyStateTest, FreezeOnEmptyCacheIsHarmless) {
  PipelineTestEnv env(4, 50, 64);
  auto pipeline =
      std::move(Pipeline::Create(CachedGraph(), env.Options())).value();
  // Never ran: the cache holds nothing; freezing must NOT mark it
  // complete (an empty "complete" cache would end the dataset).
  pipeline->SimulateSteadyState();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
  EXPECT_FALSE(end);
}

TEST(SteadyStateTest, FreezeWithoutCacheIsNoOp) {
  PipelineTestEnv env(4, 50, 64);
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 1);
  n = b.Map("grow", n, "double_size");
  n = b.Batch("batch", n, 4, /*drop_remainder=*/false);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  const auto before = Drain(*pipeline).size();
  pipeline->SimulateSteadyState();
  EXPECT_EQ(Drain(*pipeline).size(), before);
}

TEST(SteadyStateTest, FreezeStopsALiveWriter) {
  // PickBest's sequence: warm a cache on one iterator, freeze it, and
  // keep measuring on that same iterator. The writer must stop
  // filling and serve the frozen fill (across repeat epochs) instead
  // of pulling on through the map below the cache.
  PipelineTestEnv env;
  GraphBuilder b;
  auto n = b.Map("work", b.Range("src", 100000), "slow");
  n = b.Cache("cache", n);
  n = b.Repeat("repeat", n);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  RunOptions fill;
  fill.max_seconds = 0.1;
  ASSERT_TRUE(RunIterator(iterator.get(), fill).status.ok());
  pipeline->SimulateSteadyState();

  const IteratorStats* work = pipeline->stats().Find("work");
  ASSERT_NE(work, nullptr);
  const uint64_t mapped = work->elements_produced();
  ASSERT_GT(mapped, 0u);
  Element e;
  bool end = false;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
    ASSERT_FALSE(end);
  }
  EXPECT_LE(work->elements_produced(), mapped + 1);
}

TEST(SteadyStateTest, TracerWarmupAndFreezeYieldSteadyRates) {
  PipelineTestEnv env(4, 50, 64);
  auto pipeline =
      std::move(Pipeline::Create(CachedGraph(), env.Options())).value();
  TraceOptions topts;
  topts.trace_seconds = 0.2;
  topts.warmup_seconds = 0.3;
  topts.simulate_cache_steady_state = true;
  topts.machine = MachineSpec::SetupA();
  const TraceSnapshot trace = CaptureTrace(*pipeline, topts);
  pipeline->Cancel();
  // At steady state the expensive map does no work; the trace must
  // show (near-)zero completions for it and nonzero cache serves.
  const auto* work = trace.FindStats("work");
  const auto* cache = trace.FindStats("work_cache");
  ASSERT_NE(work, nullptr);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(work->elements_produced, 0u);
  EXPECT_GT(cache->elements_produced, 0u);
}

TEST(SteadyStateTest, ModelMarksCachedSubtreeFree) {
  PipelineTestEnv env(4, 50, 64);
  auto pipeline =
      std::move(Pipeline::Create(CachedGraph(), env.Options())).value();
  TraceOptions topts;
  topts.trace_seconds = 0.2;
  topts.warmup_seconds = 0.3;
  topts.simulate_cache_steady_state = true;
  topts.machine = MachineSpec::SetupA();
  const TraceSnapshot trace = CaptureTrace(*pipeline, topts);
  pipeline->Cancel();
  auto model = std::move(PipelineModel::Build(trace, &env.udfs)).value();
  // The LP must not see the cached-away stages...
  for (const auto& stage : model.LpStages()) {
    EXPECT_NE(stage.name, "work");
    EXPECT_NE(stage.name, "interleave");
  }
  // ...and the plan must explicitly release their parallelism.
  const LpPlan plan = PlanAllocation(model);
  auto it = plan.parallelism.find("work");
  ASSERT_NE(it, plan.parallelism.end());
  EXPECT_EQ(it->second, 1);
  // A cached pipeline reads nothing from disk at steady state.
  EXPECT_EQ(model.DiskBytesPerMinibatch(), 0);
}

TEST(SteadyStateTest, OptimizerReleasesCoresBehindCache) {
  // End-to-end: after the cache pass, the second optimizer pass must
  // not leave large parallelism on stages behind the cache.
  PipelineTestEnv env(2, 40, 64);
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 1);
  n = b.Map("expensive", n, "slow");
  n = b.Map("augment", n, "rand_aug");  // random: stays above any cache
  n = b.ShuffleAndRepeat("sr", n, 16);
  n = b.Batch("batch", n, 5);
  GraphDef graph = std::move(b.Build(n)).value();

  MachineSpec machine = MachineSpec::SetupA();
  machine.num_cores = 8;
  machine.memory_bytes = 10 << 20;
  OptimizeOptions options;
  options.trace_seconds = 0.2;
  PlumberOptimizer optimizer(options, env.OptionsFor(machine), machine);
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->cache.feasible);
  EXPECT_EQ(result->cache.node, "expensive");
  // The cached-away expensive map must end at parallelism 1.
  EXPECT_EQ(*rewriter::GetParallelism(result->graph, "expensive"), 1);
}

}  // namespace
}  // namespace plumber
