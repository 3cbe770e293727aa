// Planner tests on hand-constructed trace snapshots with exact numbers.
#include "src/core/planner.h"

#include <gtest/gtest.h>

#include "src/core/multi_job_planner.h"
#include "src/pipeline/ops.h"

namespace plumber {
namespace {

struct SyntheticNode {
  std::string name;
  std::string op;
  uint64_t completions;
  double cpu_seconds;
  uint64_t bytes_produced = 0;
  uint64_t bytes_read = 0;
  int parallelism = 1;
  std::string udf;
};

// Builds a linear chain trace: nodes[0] is the source, nodes.back() the
// root. Wall time 1s.
TraceSnapshot MakeChainTrace(std::vector<SyntheticNode> nodes,
                             const MachineSpec& machine) {
  TraceSnapshot trace;
  trace.machine = machine;
  trace.wall_seconds = 1.0;
  std::string prev;
  for (const auto& n : nodes) {
    NodeDef def;
    def.name = n.name;
    def.op = n.op;
    if (!prev.empty()) def.inputs = {prev};
    if (!n.udf.empty()) def.attrs[kAttrUdf] = AttrValue(n.udf);
    EXPECT_TRUE(trace.graph.AddNode(def).ok());
    prev = n.name;

    IteratorStatsSnapshot s;
    s.name = n.name;
    s.op = n.op;
    s.elements_produced = n.completions;
    s.bytes_produced = n.bytes_produced;
    s.bytes_read = n.bytes_read;
    s.cpu_ns = static_cast<int64_t>(n.cpu_seconds * 1e9);
    s.parallelism = n.parallelism;
    s.udf_name = n.udf;
    trace.stats.push_back(s);
  }
  trace.graph.SetOutput(prev);
  trace.root_completions = nodes.back().completions;
  trace.observed_rate = static_cast<double>(trace.root_completions);
  return trace;
}

// Chain: interleave (source, light) -> map decode (heavy) -> batch(10).
// Over the 1s window: 1000 elements, 100 minibatches.
TraceSnapshot StandardTrace(const MachineSpec& machine) {
  return MakeChainTrace(
      {
          {"source", "interleave", 1000, 0.05, 64000, 80000, 1},
          {"decode", "map", 1000, 0.60, 384000, 0, 1, "decode"},
          {"batch", "batch", 100, 0.01, 384000, 0, 1},
      },
      machine);
}

UdfRegistry EmptyUdfs() {
  UdfRegistry udfs;
  UdfSpec decode;
  decode.name = "decode";
  EXPECT_TRUE(udfs.Register(decode).ok());
  return udfs;
}

TEST(LpPlanTest, CpuBoundPredictionMatchesWaterFilling) {
  const auto udfs = EmptyUdfs();
  auto model = std::move(PipelineModel::Build(StandardTrace(
                             MachineSpec::SetupA()), &udfs))
                   .value();
  // Rates (minibatches/s/core): source = (1000/0.05)/10 = 2000;
  // decode = (1000/0.60)/10 = 166.7; batch = 100/0.01/1 = 10000.
  // Water filling over 16 cores: X = 16 / (1/2000 + 1/166.7 + 1/10000).
  const LpPlan plan = PlanAllocation(model);
  const double expected = 16.0 / (1 / 2000.0 + 0.6 / 100.0 + 1 / 10000.0);
  EXPECT_NEAR(plan.predicted_rate, expected, expected * 0.02);
  EXPECT_EQ(plan.bottleneck, "decode");
  EXPECT_FALSE(plan.disk_limited);
  // Batch is sequential (no knob): theta <= 1.
  EXPECT_LE(plan.theta.at("batch"), 1.0 + 1e-9);
  // Parallelism suggestions only for tunable ops.
  EXPECT_TRUE(plan.parallelism.count("decode"));
  EXPECT_FALSE(plan.parallelism.count("batch"));
  EXPECT_GE(plan.parallelism.at("decode"), 10);
}

TEST(LpPlanTest, DiskConstraintCapsRate) {
  const auto udfs = EmptyUdfs();
  auto model = std::move(PipelineModel::Build(StandardTrace(
                             MachineSpec::SetupA()), &udfs))
                   .value();
  // Disk demand: 80000 bytes / 100 minibatches = 800 bytes/minibatch.
  LpPlanOptions options;
  options.disk_bandwidth = 8000;  // -> cap at 10 minibatches/sec
  const LpPlan plan = PlanAllocation(model, options);
  EXPECT_TRUE(plan.disk_limited);
  EXPECT_NEAR(plan.predicted_rate, 10.0, 1e-6);
  EXPECT_NEAR(plan.disk_bound_rate, 10.0, 1e-6);
  EXPECT_GT(plan.cpu_bound_rate, plan.predicted_rate);
}

TEST(LpPlanTest, IoCurveSuggestsMinimalParallelism) {
  const auto udfs = EmptyUdfs();
  auto model = std::move(PipelineModel::Build(StandardTrace(
                             MachineSpec::SetupA()), &udfs))
                   .value();
  LpPlanOptions options;
  options.disk_bandwidth = 1e9;  // unconstrained
  options.io_curve.AddPoint(1, 100000);
  options.io_curve.AddPoint(2, 200000);
  options.io_curve.AddPoint(4, 400000);
  const LpPlan plan = PlanAllocation(model, options);
  // Required bandwidth = rate * 800 bytes; with rate ~2400 that's
  // ~1.9MB/s — beyond the curve, so the suggestion clamps to max.
  EXPECT_GE(plan.suggested_io_parallelism, 4);
}

TEST(LpPlanTest, MoreCoresRaiseCpuBound) {
  const auto udfs = EmptyUdfs();
  auto model_a = std::move(PipelineModel::Build(StandardTrace(
                               MachineSpec::SetupA()), &udfs))
                     .value();
  auto model_c = std::move(PipelineModel::Build(StandardTrace(
                               MachineSpec::SetupC()), &udfs))
                     .value();
  EXPECT_GT(PlanAllocation(model_c).predicted_rate,
            PlanAllocation(model_a).predicted_rate * 3);
}

TEST(LpPlanTest, MultiJobPlannerAgreesForOneUncappedJob) {
  // Source and decode are both parallel, so the water-fill spends every
  // core: X = 16 / (1/20000 + 1/1666.7), theta = (1.23, 14.77), and
  // the spare core goes to decode's larger remainder. One uncapped job
  // on the same 16 cores must get the same split from the arbiter.
  const auto udfs = EmptyUdfs();
  auto model = std::move(PipelineModel::Build(
                             MakeChainTrace(
                                 {
                                     {"source", "interleave", 1000, 0.05, 0,
                                      0, 1, ""},
                                     {"decode", "map", 1000, 0.60, 0, 0, 1,
                                      "decode"},
                                 },
                                 MachineSpec::SetupA()),
                             &udfs))
                   .value();
  const LpPlan single = PlanAllocation(model);
  ASSERT_TRUE(single.core_limited);
  EXPECT_EQ(single.parallelism.at("source"), 1);
  EXPECT_EQ(single.parallelism.at("decode"), 15);

  JobDemand demand;
  demand.job_id = "job";
  demand.stages = model.LpStages();
  for (const MaxMinStage& stage : demand.stages) {
    ASSERT_FALSE(stage.sequential) << stage.name;
  }
  const MultiJobPlan multi =
      PlanMultiJobAllocation({demand}, model.machine().num_cores);
  const LpPlan& arbitrated = multi.jobs.at("job");
  EXPECT_EQ(arbitrated.parallelism, single.parallelism);
  ASSERT_EQ(arbitrated.theta.size(), single.theta.size());
  for (const auto& [name, theta] : single.theta) {
    EXPECT_NEAR(arbitrated.theta.at(name), theta, 1e-9) << name;
  }
}

// ---- Cache planning -------------------------------------------------

TraceSnapshot CacheTrace(const MachineSpec& machine) {
  // source(1000 el, 100B each) -> decode(1000 el, 600B each) ->
  // random augment -> batch(10). Finite (no repeat).
  TraceSnapshot trace = MakeChainTrace(
      {
          {"source", "interleave", 1000, 0.02, 100000, 110000, 1},
          {"decode", "map", 1000, 0.50, 600000, 0, 1, "decode"},
          {"augment", "map", 1000, 0.05, 600000, 0, 1, "augment"},
          {"batch", "batch", 100, 0.01, 600000, 0, 1},
      },
      machine);
  // One fully-read source file backs cardinality estimation.
  trace.read_log["data/f0"] = FileReadEntry{110000, 110000, true};
  trace.files_per_prefix["data/"] = 1;
  return trace;
}

UdfRegistry CacheUdfs() {
  UdfRegistry udfs;
  UdfSpec decode;
  decode.name = "decode";
  EXPECT_TRUE(udfs.Register(decode).ok());
  UdfSpec augment;
  augment.name = "augment";
  augment.accesses_random_seed = true;
  EXPECT_TRUE(udfs.Register(augment).ok());
  return udfs;
}

TEST(CachePlanTest, PicksClosestCacheableNodeThatFits) {
  const auto udfs = CacheUdfs();
  auto model = std::move(
                   PipelineModel::Build(CacheTrace(MachineSpec::SetupA()),
                                        &udfs))
                   .value();
  // augment and batch are random-tainted; decode (600KB) and source
  // (100KB) are cacheable. With a 1MB budget the decode output wins.
  CachePlanOptions options;
  options.memory_bytes = 1 << 20;
  const CacheDecision decision = PlanCache(model, options);
  ASSERT_TRUE(decision.feasible);
  EXPECT_EQ(decision.node, "decode");
  EXPECT_NEAR(decision.materialized_bytes, 600000, 60000);
}

TEST(CachePlanTest, FallsBackToSourceWhenDecodedTooBig) {
  const auto udfs = CacheUdfs();
  auto model = std::move(
                   PipelineModel::Build(CacheTrace(MachineSpec::SetupA()),
                                        &udfs))
                   .value();
  CachePlanOptions options;
  options.memory_bytes = 200000;  // decode (600KB) won't fit; source will
  const CacheDecision decision = PlanCache(model, options);
  ASSERT_TRUE(decision.feasible);
  EXPECT_EQ(decision.node, "source");
}

TEST(CachePlanTest, InfeasibleWhenNothingFits) {
  const auto udfs = CacheUdfs();
  auto model = std::move(
                   PipelineModel::Build(CacheTrace(MachineSpec::SetupA()),
                                        &udfs))
                   .value();
  CachePlanOptions options;
  options.memory_bytes = 10;
  const CacheDecision decision = PlanCache(model, options);
  EXPECT_FALSE(decision.feasible);
  EXPECT_FALSE(decision.candidates.empty());
}

TEST(CachePlanTest, ZeroMemoryBudgetMeansNoMemoryTier) {
  // Without a read log the source size estimate is 0 bytes, so every
  // candidate materializes to 0 bytes. A 0-byte budget is still no
  // memory tier at all (the same rule as a 0-byte scratch tier), not a
  // tier that fits only empty materializations.
  TraceSnapshot trace = CacheTrace(MachineSpec::SetupA());
  trace.read_log.clear();
  trace.files_per_prefix.clear();
  const auto udfs = CacheUdfs();
  auto model = std::move(PipelineModel::Build(trace, &udfs)).value();
  const NodeModel* decode = model.Find("decode");
  ASSERT_NE(decode, nullptr);
  ASSERT_TRUE(decode->cacheable);
  ASSERT_EQ(decode->materialized_bytes, 0);

  CachePlanOptions options;
  options.memory_bytes = 0;
  const CacheDecision none = PlanCache(model, options);
  EXPECT_FALSE(none.feasible);
  EXPECT_EQ(none.tier, CacheTier::kNone);
  EXPECT_FALSE(none.candidates.empty());

  options.memory_bytes = 1;
  const CacheDecision tiny = PlanCache(model, options);
  ASSERT_TRUE(tiny.feasible);
  EXPECT_EQ(tiny.tier, CacheTier::kMemory);
  EXPECT_EQ(tiny.node, "decode");
}

TEST(CachePlanTest, DiskServeRateGuardComparesUncachedLpRate) {
  const auto udfs = CacheUdfs();
  auto model = std::move(
                   PipelineModel::Build(CacheTrace(MachineSpec::SetupA()),
                                        &udfs))
                   .value();
  const double uncached = PlanAllocation(model).predicted_rate;
  ASSERT_GT(uncached, 0);
  const NodeModel* decode = model.Find("decode");
  ASSERT_NE(decode, nullptr);
  const double decode_bytes_per_minibatch =
      decode->visit_ratio * decode->bytes_per_element;

  CachePlanOptions options;
  options.memory_bytes = 10;  // DRAM fits nothing
  options.disk_free_bytes = 1 << 20;
  options.disk_read_bandwidth = 1.01 * uncached * decode_bytes_per_minibatch;
  const CacheDecision fast = PlanCache(model, options);
  ASSERT_TRUE(fast.feasible);
  EXPECT_EQ(fast.tier, CacheTier::kDisk);
  EXPECT_EQ(fast.node, "decode");
  EXPECT_NEAR(fast.disk_serve_rate, 1.01 * uncached, 1e-6 * uncached);

  // Just below the uncached rate, serving decode's output would
  // bottleneck the pipeline; the source's 6x smaller elements still
  // serve fast enough, so the placement moves deeper.
  options.disk_read_bandwidth = 0.99 * uncached * decode_bytes_per_minibatch;
  const CacheDecision slow = PlanCache(model, options);
  ASSERT_TRUE(slow.feasible);
  EXPECT_EQ(slow.tier, CacheTier::kDisk);
  EXPECT_EQ(slow.node, "source");
  ASSERT_EQ(slow.candidates.size(), 2u);
  EXPECT_EQ(slow.candidates[0].node, "decode");
  EXPECT_FALSE(slow.candidates[0].fits);

  // The guard compares against the LP under the caller's constraints:
  // a 100 minibatch/s disk bound on the source lowers the bar, and
  // decode fits again.
  LpPlanOptions lp;
  lp.disk_bandwidth = 100 * model.DiskBytesPerMinibatch();
  EXPECT_EQ(PlanCache(model, options, lp).node, "decode");
}

// ---- Prefetch planning ----------------------------------------------

TEST(PrefetchPlanTest, InjectsWhenRootIsNotPrefetch) {
  const auto udfs = EmptyUdfs();
  auto model = std::move(PipelineModel::Build(StandardTrace(
                             MachineSpec::SetupA()), &udfs))
                   .value();
  const PrefetchDecision decision = PlanPrefetch(model);
  EXPECT_TRUE(decision.inject_root);
  EXPECT_GE(decision.root_buffer, 2);
  // 0.66 cores used of 16 -> high idleness.
  EXPECT_GT(decision.pipeline_idleness, 0.8);
}

}  // namespace
}  // namespace plumber
