// Property suite: every rewrite Plumber performs must preserve pipeline
// semantics. The paper's premise is that traces are valid programs and
// rewrites are drop-in replacements (§4.2, §B "Graph Rewrites") — so an
// optimized pipeline must produce the same multiset of elements as the
// original, for any combination of injected parallelism, prefetching,
// and caching.
#include <gtest/gtest.h>

#include <tuple>

#include "src/core/optimizer.h"
#include "src/core/rewriter.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::PipelineTestEnv;
using testing_util::SizeFingerprint;

// A finite reference pipeline (no infinite repeat) so full drains
// terminate: interleave -> grow -> filter(keep_all) -> batch(4).
GraphDef FiniteGraph() {
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 1);
  n = b.Map("grow", n, "double_size");
  n = b.Filter("filter", n, "keep_all");
  n = b.Batch("batch", n, 4, /*drop_remainder=*/false);
  return std::move(b.Build(n)).value();
}

std::vector<size_t> ReferenceFingerprint(PipelineTestEnv& env) {
  auto pipeline =
      std::move(Pipeline::Create(FiniteGraph(), env.Options())).value();
  return SizeFingerprint(Drain(*pipeline));
}

// (map parallelism, interleave parallelism, prefetch buffer, cache point)
using RewriteParam = std::tuple<int, int, int, const char*>;

class RewriteEquivalenceTest
    : public ::testing::TestWithParam<RewriteParam> {};

TEST_P(RewriteEquivalenceTest, RewrittenPipelineSameMultiset) {
  const auto [map_par, il_par, prefetch_buf, cache_after] = GetParam();
  PipelineTestEnv env(3, 20, 48);
  const std::vector<size_t> expected = ReferenceFingerprint(env);

  GraphDef graph = FiniteGraph();
  ASSERT_TRUE(rewriter::SetParallelism(&graph, "grow", map_par).ok());
  ASSERT_TRUE(rewriter::SetParallelism(&graph, "interleave", il_par).ok());
  if (prefetch_buf > 0) {
    ASSERT_TRUE(rewriter::EnsureRootPrefetch(&graph, prefetch_buf).ok());
  }
  if (cache_after[0] != '\0') {
    ASSERT_TRUE(rewriter::InjectCache(&graph, cache_after).ok());
  }

  auto pipeline =
      std::move(Pipeline::Create(graph, env.Options())).value();
  EXPECT_EQ(SizeFingerprint(Drain(*pipeline)), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Rewrites, RewriteEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 7),
                       ::testing::Values(1, 2),
                       ::testing::Values(0, 3),
                       ::testing::Values("", "grow", "interleave")),
    [](const ::testing::TestParamInfo<RewriteParam>& info) {
      std::string name =
          "map" + std::to_string(std::get<0>(info.param)) + "_il" +
          std::to_string(std::get<1>(info.param)) + "_pf" +
          std::to_string(std::get<2>(info.param));
      const char* cache_after = std::get<3>(info.param);
      if (cache_after[0] != '\0') name += std::string("_cache_") + cache_after;
      return name;
    });

TEST(RewriteEquivalenceTest, CachedEpochsAreIdentical) {
  // Epoch 2 (served from cache) must equal epoch 1 (which filled it).
  PipelineTestEnv env(3, 20, 48);
  GraphDef graph = FiniteGraph();
  ASSERT_TRUE(rewriter::InjectCache(&graph, "grow").ok());
  auto pipeline =
      std::move(Pipeline::Create(graph, env.Options())).value();
  const auto epoch1 = SizeFingerprint(Drain(*pipeline));
  const auto epoch2 = SizeFingerprint(Drain(*pipeline));
  EXPECT_EQ(epoch1, epoch2);
  EXPECT_FALSE(epoch1.empty());
}

TEST(RewriteEquivalenceTest, FullOptimizerPreservesSemantics) {
  // The entire optimizer (LP + prefetch + cache, two passes) must be
  // semantics-preserving end to end.
  PipelineTestEnv env(3, 20, 48);
  const std::vector<size_t> expected = ReferenceFingerprint(env);

  MachineSpec machine = MachineSpec::SetupA();
  machine.num_cores = 8;
  machine.memory_bytes = 10 << 20;
  OptimizeOptions options;
  options.trace_seconds = 0.15;
  PlumberOptimizer optimizer(options, env.OptionsFor(machine), machine);
  auto result = optimizer.Optimize(FiniteGraph());
  ASSERT_TRUE(result.ok()) << result.status();

  auto pipeline =
      std::move(Pipeline::Create(result->graph, env.Options())).value();
  EXPECT_EQ(SizeFingerprint(Drain(*pipeline)), expected);
}

TEST(RewriteEquivalenceTest, RewritesPreserveSignature) {
  // A rewritten graph validates and instantiates: it is a drop-in
  // replacement (the @optimize contract).
  PipelineTestEnv env(3, 20, 48);
  GraphDef graph = FiniteGraph();
  ASSERT_TRUE(rewriter::SetAllParallelism(&graph, 4).ok());
  ASSERT_TRUE(rewriter::EnsureRootPrefetch(&graph, 2).ok());
  ASSERT_TRUE(rewriter::InjectCache(&graph, "filter").ok());
  ASSERT_TRUE(graph.Validate().ok());
  // Serialization round-trips through the rewrites.
  auto reparsed = GraphDef::Parse(graph.Serialize());
  ASSERT_TRUE(reparsed.ok());
  auto pipeline = Pipeline::Create(std::move(reparsed).value(),
                                   env.Options());
  ASSERT_TRUE(pipeline.ok());
  EXPECT_FALSE(Drain(**pipeline).empty());
}

TEST(RewriteEquivalenceTest, PassOrderPermutationsPreserveSemantics) {
  // Any pass schedule — reordered, repeated, truncated — must
  // still produce a valid drop-in replacement graph: same multiset of
  // elements, validates, instantiates.
  PipelineTestEnv env(3, 20, 48);
  const std::vector<size_t> expected = ReferenceFingerprint(env);

  const char* kSchedules[] = {
      "parallelism,prefetch,cache,parallelism",  // default
      "cache,prefetch,parallelism",
      "prefetch,parallelism",
      "parallelism,prefetch,cache",
      "cache,prefetch",
      "parallelism,parallelism,prefetch",
  };
  for (const char* schedule : kSchedules) {
    MachineSpec machine = MachineSpec::SetupA();
    machine.num_cores = 8;
    machine.memory_bytes = 10 << 20;
    OptimizeOptions options;
    options.trace_seconds = 0.15;
    options.schedule = schedule;
    PlumberOptimizer optimizer(options, env.OptionsFor(machine), machine);
    auto result = optimizer.Optimize(FiniteGraph());
    ASSERT_TRUE(result.ok()) << schedule << ": " << result.status();
    ASSERT_TRUE(result->graph.Validate().ok()) << schedule;
    auto pipeline = Pipeline::Create(result->graph, env.Options());
    ASSERT_TRUE(pipeline.ok()) << schedule << ": " << pipeline.status();
    EXPECT_EQ(SizeFingerprint(Drain(**pipeline)), expected) << schedule;
  }
}

TEST(RewriteEquivalenceTest, PlacementScheduleDropInsPreserveSemantics) {
  // The placement rewrites (a disk-tier cache, shard_sources) slot into
  // any schedule position and stay semantics-preserving, under a
  // machine where they actually fire: memory too small for a DRAM
  // cache (so cache goes to the scratch tier) and a modeled disk bound
  // (so shard_sources shards). A repeated "cache" must never
  // double-insert.
  PipelineTestEnv env(3, 20, 48);
  const std::vector<size_t> expected = ReferenceFingerprint(env);

  const char* kSchedules[] = {
      "cache,parallelism",
      "parallelism,prefetch,cache,parallelism",
      "shard_sources,parallelism",
      "shard_sources,cache,prefetch,parallelism",
      "cache,cache",
      "shard_sources,cache",
  };
  for (const char* schedule : kSchedules) {
    MachineSpec machine = MachineSpec::SetupA();
    machine.num_cores = 8;
    machine.memory_bytes = 1024;
    machine.scratch = DeviceSpec::NvmeSsd();
    machine.scratch_bytes = 64ull << 20;
    OptimizeOptions options;
    options.lp_options.disk_bandwidth = 500;
    options.trace_seconds = 0.15;
    options.schedule = schedule;
    PlumberOptimizer optimizer(options, env.OptionsFor(machine), machine);
    auto result = optimizer.Optimize(FiniteGraph());
    ASSERT_TRUE(result.ok()) << schedule << ": " << result.status();
    ASSERT_TRUE(result->graph.Validate().ok()) << schedule;
    int caches = 0;
    for (const NodeDef& node : result->graph.nodes()) {
      if (node.op == "cache") ++caches;
    }
    EXPECT_LE(caches, 1) << schedule;
    auto pipeline = Pipeline::Create(result->graph, env.Options());
    ASSERT_TRUE(pipeline.ok()) << schedule << ": " << pipeline.status();
    EXPECT_EQ(SizeFingerprint(Drain(**pipeline)), expected) << schedule;
  }
}

TEST(RewriteEquivalenceTest, SecondPrefetchInjectionIsIdempotent) {
  PipelineTestEnv env(3, 20, 48);
  GraphDef graph = FiniteGraph();
  ASSERT_TRUE(rewriter::EnsureRootPrefetch(&graph, 4).ok());
  const size_t nodes_after_first = graph.nodes().size();
  ASSERT_TRUE(rewriter::EnsureRootPrefetch(&graph, 4).ok());
  EXPECT_EQ(graph.nodes().size(), nodes_after_first);
}

}  // namespace
}  // namespace plumber
