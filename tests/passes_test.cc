// Pass framework tests: the pass table, schedule parsing, the default
// schedule, and the cache pass's tier dispatch.
#include "src/core/passes/pass.h"

#include <gtest/gtest.h>

#include "src/api/session.h"
#include "src/core/optimizer.h"
#include "src/core/rewriter.h"
#include "src/pipeline/ops.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::PipelineTestEnv;

std::vector<std::string> Names(
    const std::vector<const OptimizerPass*>& schedule) {
  std::vector<std::string> names;
  for (const OptimizerPass* pass : schedule) names.push_back(pass->name);
  return names;
}

TEST(PassTableTest, BuiltinsInCanonicalOrder) {
  const std::vector<OptimizerPass>& passes = OptimizerPasses();
  ASSERT_EQ(passes.size(), 4u);
  EXPECT_STREQ(passes[0].name, "parallelism");
  EXPECT_STREQ(passes[1].name, "prefetch");
  EXPECT_STREQ(passes[2].name, "cache");
  EXPECT_STREQ(passes[3].name, "shard_sources");
  for (const OptimizerPass& pass : passes) {
    // Each name is schedule-safe and distinct: it parses as a one-pass
    // schedule that resolves to its own row.
    auto schedule = ParsePassSchedule(pass.name);
    ASSERT_TRUE(schedule.ok()) << pass.name << ": " << schedule.status();
    ASSERT_EQ(schedule->size(), 1u);
    EXPECT_EQ((*schedule)[0], &pass);
    EXPECT_NE(pass.run, nullptr) << pass.name;
    // The cache pass and the shard pass declare a re-parallelism
    // follow-up (redistribute the cores their rewrite frees or the
    // bandwidth it adds) in generated schedules.
    if (std::string(pass.name) == "cache" ||
        std::string(pass.name) == "shard_sources") {
      EXPECT_STREQ(pass.followup, "parallelism") << pass.name;
    } else {
      EXPECT_EQ(pass.followup, nullptr) << pass.name;
    }
  }
}

TEST(PassTableTest, UnknownPassFails) {
  auto schedule = ParsePassSchedule("bogus");
  ASSERT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument);
  // The error lists every known pass.
  for (const OptimizerPass& pass : OptimizerPasses()) {
    EXPECT_NE(schedule.status().message().find(pass.name), std::string::npos)
        << schedule.status();
  }
}

TEST(PassScheduleTest, ParsesDefaultSchedule) {
  auto schedule = ParsePassSchedule(kDefaultPassSchedule);
  ASSERT_TRUE(schedule.ok());
  const std::vector<std::string> expected = {"parallelism", "prefetch",
                                             "cache", "parallelism"};
  EXPECT_EQ(Names(*schedule), expected);
}

TEST(PassScheduleTest, TrimsWhitespaceAndAllowsRepeats) {
  auto schedule =
      ParsePassSchedule(" parallelism ,\tprefetch , parallelism");
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  const std::vector<std::string> expected = {"parallelism", "prefetch",
                                             "parallelism"};
  EXPECT_EQ(Names(*schedule), expected);
}

TEST(PassScheduleTest, EmptyStringIsEmptySchedule) {
  auto schedule = ParsePassSchedule("");
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->empty());
}

TEST(PassScheduleTest, UnknownPassNameIsInvalidArgument) {
  auto schedule = ParsePassSchedule("parallelism,bogus");
  ASSERT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument);
  // The error names the offender and the known passes.
  EXPECT_NE(schedule.status().message().find("bogus"), std::string::npos);
  EXPECT_NE(schedule.status().message().find("parallelism"),
            std::string::npos);
}

TEST(PassScheduleTest, EmptyComponentIsInvalidArgument) {
  EXPECT_EQ(ParsePassSchedule("parallelism,,cache").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePassSchedule(",parallelism").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePassSchedule("parallelism,").status().code(),
            StatusCode::kInvalidArgument);
}

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
  options.trace_seconds = 0.2;
  return options;
}

// An optimizer that traces over `env` and plans for `machine`.
PlumberOptimizer MakeOptimizer(PipelineTestEnv& env,
                               const OptimizeOptions& options,
                               const MachineSpec& machine = TestMachine()) {
  return PlumberOptimizer(options, env.OptionsFor(machine), machine);
}

TEST(PassFrameworkTest, UnknownPassInScheduleFailsBeforeTracing) {
  PipelineTestEnv env(2, 20, 64);
  OptimizeOptions options = MakeOptions();
  options.schedule = "parallelism,no_such_pass";
  PlumberOptimizer optimizer = MakeOptimizer(env, options);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PassFrameworkTest, EmptyScheduleStillTracesTheInput) {
  // The empty schedule runs no passes: the graph is returned untouched
  // but the observed rate is still measured.
  PipelineTestEnv env(2, 20, 64);
  OptimizeOptions options = MakeOptions();
  options.schedule = "";
  PlumberOptimizer optimizer = MakeOptimizer(env, options);
  const GraphDef input = MisconfiguredGraph();
  auto result = optimizer.Optimize(input);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->pass_reports.empty());
  EXPECT_EQ(result->graph.Serialize(), input.Serialize());
  EXPECT_GT(result->traced_rate, 0);
}

TEST(PassFrameworkTest, DefaultScheduleProducesOneReportPerPass) {
  PipelineTestEnv env(4, 50, 64);
  OptimizeOptions options = MakeOptions();
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 10 << 20;
  PlumberOptimizer optimizer = MakeOptimizer(env, options, machine);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->pass_reports.size(), 4u);
  EXPECT_EQ(result->pass_reports[0].pass, "parallelism");
  EXPECT_EQ(result->pass_reports[1].pass, "prefetch");
  EXPECT_EQ(result->pass_reports[2].pass, "cache");
  EXPECT_EQ(result->pass_reports[3].pass, "parallelism");
  // The parallelism and prefetch passes always rewrite; their typed
  // decisions surface both per report and folded into the flat fields.
  EXPECT_TRUE(result->pass_reports[0].changed);
  EXPECT_GT(result->pass_reports[0].plan.predicted_rate, 0);
  EXPECT_TRUE(result->pass_reports[1].changed);
  EXPECT_GE(result->pass_reports[1].prefetch.root_buffer, 1);
  EXPECT_EQ(result->prefetch.root_buffer,
            result->pass_reports[1].prefetch.root_buffer);
  // The folded plan is the final parallelism pass's plan.
  EXPECT_EQ(result->plan.predicted_rate,
            result->pass_reports[3].plan.predicted_rate);
  // First trace feeds passes 0-2 (one trace per iteration, as in the
  // pre-framework optimizer); the final parallelism pass re-traces.
  EXPECT_EQ(result->pass_reports[0].traced_rate,
            result->pass_reports[1].traced_rate);
  EXPECT_EQ(result->pass_reports[1].traced_rate,
            result->pass_reports[2].traced_rate);
}

const NodeDef* FindCacheNode(const GraphDef& graph) {
  for (const NodeDef& node : graph.nodes()) {
    if (node.op == "cache") return &node;
  }
  return nullptr;
}

TEST(CachePassTest, ScratchTierLeavesMemoryPlacementUnchanged) {
  // When the materialization fits DRAM, configuring a scratch tier must
  // not change the rewrite: same insertion point, same name, and no
  // tier attr.
  PipelineTestEnv env(4, 50, 64);
  OptimizeOptions options = MakeOptions();
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 1ull << 30;
  options.schedule = "cache";
  auto dram_only =
      MakeOptimizer(env, options, machine).Optimize(MisconfiguredGraph());
  ASSERT_TRUE(dram_only.ok()) << dram_only.status();
  machine.scratch = DeviceSpec::NvmeSsd();
  machine.scratch_bytes = 64ull << 20;
  auto with_scratch =
      MakeOptimizer(env, options, machine).Optimize(MisconfiguredGraph());
  ASSERT_TRUE(with_scratch.ok()) << with_scratch.status();

  EXPECT_EQ(dram_only->cache.tier, CacheTier::kMemory);
  EXPECT_EQ(with_scratch->cache.tier, CacheTier::kMemory);
  const NodeDef* a = FindCacheNode(with_scratch->graph);
  const NodeDef* b = FindCacheNode(dram_only->graph);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->name, b->name);
  EXPECT_EQ(a->inputs, b->inputs);
  EXPECT_FALSE(a->HasAttr(kAttrCacheTier));
  EXPECT_FALSE(b->HasAttr(kAttrCacheTier));
}

TEST(CachePassTest, FallsBackToDiskUnderTightMemory) {
  // Memory-first dispatch (paper §4.1 "Extensions") in the default
  // schedule: with DRAM too small, the cache goes to the scratch tier.
  PipelineTestEnv env(4, 50, 64);
  OptimizeOptions options = MakeOptions();
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 1024;  // nothing fits DRAM
  machine.scratch = DeviceSpec::NvmeSsd();
  machine.scratch_bytes = 64ull << 20;
  PlumberOptimizer optimizer = MakeOptimizer(env, options, machine);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->cache.feasible);
  EXPECT_EQ(result->cache.tier, CacheTier::kDisk);
  EXPECT_GT(result->cache.disk_serve_rate, 0);
  const NodeDef* cache = FindCacheNode(result->graph);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->GetString(kAttrCacheTier), "disk");
}

TEST(CachePassTest, SkipsWithoutAnyFittingTier) {
  // Tight memory and no scratch tier: the pass reports infeasible and
  // leaves the graph cache-free instead of forcing a bad placement.
  PipelineTestEnv env(4, 50, 64);
  OptimizeOptions options = MakeOptions();
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 1024;
  machine.scratch_bytes = 0;
  options.schedule = "cache";
  PlumberOptimizer optimizer = MakeOptimizer(env, options, machine);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->cache.feasible);
  EXPECT_FALSE(result->pass_reports[0].changed);
  EXPECT_EQ(FindCacheNode(result->graph), nullptr);
}

TEST(ShardSourcesPassTest, SolvesShardCountFromDiskBound) {
  // A few hundred bytes/sec of modeled disk against a CPU plan in the
  // hundreds of minibatches/sec: the solve wants far more shards than
  // exist, so the count clamps to the file count (4).
  PipelineTestEnv env(4, 50, 64);
  OptimizeOptions options = MakeOptions();
  options.schedule = "shard_sources";
  options.lp_options.disk_bandwidth = 500;
  PlumberOptimizer optimizer = MakeOptimizer(env, options);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->pass_reports[0].changed);
  EXPECT_EQ(result->shard_count, 4);
  EXPECT_TRUE(rewriter::HasOp(result->graph, "shard_merge"));
  EXPECT_TRUE(result->graph.Validate().ok());
  // The original unsharded source chain is gone.
  EXPECT_EQ(result->graph.FindNode("interleave"), nullptr);
  EXPECT_EQ(result->graph.FindNode("files"), nullptr);
}

TEST(ShardSourcesPassTest, SkipsWhenNotDiskLimited) {
  // Without a modeled disk bound there is nothing to shard away.
  PipelineTestEnv env(4, 50, 64);
  OptimizeOptions options = MakeOptions();
  options.schedule = "shard_sources";
  PlumberOptimizer optimizer = MakeOptimizer(env, options);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->pass_reports[0].changed);
  EXPECT_EQ(result->shard_count, 0);
  EXPECT_FALSE(rewriter::HasOp(result->graph, "shard_merge"));
}

TEST(ShardSourcesPassTest, SkipsRemoteReadSourceAndSaysWhy) {
  // Over a disk-bound file list, a tfrecord reader shards. A
  // remote_read reader reads through one remote uplink per dataset, so
  // N shard copies would model N uplinks: the pass skips it with that
  // reason, and Optimize still returns OK.
  Session session;
  ASSERT_TRUE(session.CreateRecordFiles("data/f", 4, 400, 8192).ok());
  OptimizeOptions options;
  // ~15 batches/s of modeled disk: disk-bound on any host and build.
  options.lp_options.disk_bandwidth = 1e6;
  const auto shard_report = [&](bool remote) -> StatusOr<PassReport> {
    GraphBuilder b;
    const std::string files = b.FileList("files", "data/");
    const std::string rec =
        remote ? b.RemoteRead("rec", files) : b.TfRecord("rec", files);
    ASSIGN_OR_RETURN(GraphDef graph, b.Build(b.Batch("batch", rec, 8)));
    ASSIGN_OR_RETURN(OptimizedFlow optimized,
                     session.FromGraph(std::move(graph))
                         .OptimizeWith("parallelism,shard_sources", options));
    return optimized.pass_reports.back();
  };
  auto local = shard_report(/*remote=*/false);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_GT(local->shard_count, 0) << local->summary;
  auto remote = shard_report(/*remote=*/true);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(remote->shard_count, 0);
  EXPECT_FALSE(remote->changed);
  EXPECT_NE(remote->summary.find("uplink"), std::string::npos)
      << remote->summary;
}

TEST(PassFrameworkTest, DefaultScheduleNeverShards) {
  // shard_sources is opt-in: even with a disk bound configured, the
  // default schedule does not shard the source, and a cache that fits
  // DRAM carries no tier attr although a scratch tier exists.
  EXPECT_EQ(std::string(kDefaultPassSchedule).find("shard_sources"),
            std::string::npos);
  PipelineTestEnv env(4, 50, 64);
  OptimizeOptions options = MakeOptions();
  MachineSpec machine = TestMachine();
  machine.memory_bytes = 10 << 20;
  machine.scratch = DeviceSpec::NvmeSsd();
  machine.scratch_bytes = 64ull << 20;
  options.lp_options.disk_bandwidth = 500;
  PlumberOptimizer optimizer = MakeOptimizer(env, options, machine);
  auto result = optimizer.Optimize(MisconfiguredGraph());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(rewriter::HasOp(result->graph, "shard_merge"));
  const NodeDef* cache = FindCacheNode(result->graph);
  ASSERT_NE(cache, nullptr);
  EXPECT_FALSE(cache->HasAttr(kAttrCacheTier));
}

TEST(PassFrameworkTest, RetraceHookSeesRewrittenGraph) {
  // The context's re-trace hook is the seam between passes and the
  // runtime: the second parallelism pass of the default schedule must
  // trace the graph the earlier passes rewrote, not the input.
  PipelineTestEnv env(4, 50, 64);
  const OptimizeOptions options = MakeOptions();
  const MachineSpec machine = TestMachine();
  const PipelineOptions popts = env.OptionsFor(machine);
  OptimizationContext ctx(MisconfiguredGraph(), options, popts, machine);
  int traces = 0;
  bool saw_prefetch_root = false;
  ctx.set_retrace_hook(
      [&](const GraphDef& g) -> StatusOr<TraceSnapshot> {
        ++traces;
        saw_prefetch_root =
            g.FindNode(g.output()) != nullptr &&
            g.FindNode(g.output())->op == "prefetch";
        ASSIGN_OR_RETURN(auto pipeline, Pipeline::Create(g, popts));
        TraceOptions topts;
        topts.trace_seconds = 0.1;
        topts.machine = machine;
        TraceSnapshot trace = CaptureTrace(*pipeline, topts);
        pipeline->Cancel();
        return trace;
      });
  auto schedule = ParsePassSchedule("parallelism,prefetch");
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  const OptimizerPass& parallelism = *(*schedule)[0];
  const OptimizerPass& prefetch = *(*schedule)[1];
  ASSERT_TRUE(parallelism.run(ctx).ok());
  EXPECT_EQ(traces, 1);
  EXPECT_FALSE(saw_prefetch_root);
  ASSERT_TRUE(prefetch.run(ctx).ok());
  EXPECT_EQ(traces, 1);  // prefetch plans from the latest model
  ASSERT_TRUE(parallelism.run(ctx).ok());
  EXPECT_EQ(traces, 2);  // graph changed -> fresh trace
  EXPECT_TRUE(saw_prefetch_root);
}

}  // namespace
}  // namespace plumber
