// Tests for the unified Session/Flow API: Flow-built graphs must be
// node-for-node identical to equivalent GraphBuilder graphs, auto-names
// must be collision-proof, serialized programs must round-trip over
// every op the Flow API can emit, and Run/Optimize must report
// plausible rates.
#include "src/api/session.h"

#include <gtest/gtest.h>

#include "src/core/rewriter.h"
#include "src/pipeline/graph_builder.h"
#include "src/pipeline/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

// A session mirroring PipelineTestEnv: 4 record files of 50 x 64B under
// "data/", plus the standard test UDFs.
Session MakeTestSession(int num_cores = 8) {
  SessionOptions options;
  options.machine = MachineSpec::SetupA();
  options.machine.num_cores = num_cores;
  Session session(std::move(options));
  EXPECT_TRUE(session.CreateRecordFiles("data/f", 4, 50, 64).ok());
  UdfSpec noop;
  noop.name = "noop";
  EXPECT_TRUE(session.RegisterUdf(noop).ok());
  UdfSpec slow;
  slow.name = "slow";
  slow.cost_ns_per_element = 200e3;
  EXPECT_TRUE(session.RegisterUdf(slow).ok());
  UdfSpec rand_aug;
  rand_aug.name = "rand_aug";
  rand_aug.accesses_random_seed = true;
  EXPECT_TRUE(session.RegisterUdf(rand_aug).ok());
  UdfSpec keep_half;
  keep_half.name = "keep_half";
  keep_half.keep_fraction = 0.5;
  EXPECT_TRUE(session.RegisterUdf(keep_half).ok());
  return session;
}

TEST(FlowTest, MatchesGraphBuilderNodeForNode) {
  Session session = MakeTestSession();
  const Flow flow = session.Files("data/")
                        .Interleave(2, 1)
                        .Map("slow")
                        .ShuffleAndRepeat(16)
                        .Batch(5);
  auto flow_graph = flow.Graph();
  ASSERT_TRUE(flow_graph.ok()) << flow_graph.status();

  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("file_list", "data/"), 2, 1);
  n = b.Map("map", n, "slow");
  n = b.ShuffleAndRepeat("shuffle_and_repeat", n, 16);
  n = b.Batch("batch", n, 5);
  auto built = b.Build(n);
  ASSERT_TRUE(built.ok()) << built.status();

  EXPECT_EQ(flow_graph->Serialize(), built->Serialize());
}

TEST(FlowTest, ZipOfBranchedFlowsMatchesGraphBuilder) {
  Session session = MakeTestSession();
  // Two branches off a shared prefix: the prefix must be unified, the
  // colliding auto-names ("map") must be renamed apart.
  const Flow base = session.Files("data/").TfRecord();
  const Flow left = base.Map("noop");
  const Flow right = base.Map("slow");
  const Flow zipped = Flow::Zip({left, right}).Batch(3);
  auto flow_graph = zipped.Graph();
  ASSERT_TRUE(flow_graph.ok()) << flow_graph.status();

  GraphBuilder b;
  auto records = b.TfRecord("tfrecord", b.FileList("file_list", "data/"));
  auto l = b.Map("map", records, "noop");
  auto r = b.Map("map_1", records, "slow");
  auto z = b.Zip("zip", {l, r});
  auto built = b.Build(b.Batch("batch", z, 3));
  ASSERT_TRUE(built.ok()) << built.status();

  EXPECT_EQ(flow_graph->Serialize(), built->Serialize());
}

TEST(FlowTest, ConcatenateMergesIndependentFlows) {
  Session session = MakeTestSession();
  const Flow a = session.Range(10).Map("noop");
  const Flow b = session.Range(20).Map("noop");
  const Flow cat = Flow::Concatenate({a, b});
  auto graph = cat.Graph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  // Distinct sources with identical auto-names must both survive.
  ASSERT_NE(graph->FindNode("range"), nullptr);
  ASSERT_NE(graph->FindNode("range_1"), nullptr);
  EXPECT_EQ(graph->FindNode("range")->GetInt(kAttrCount), 10);
  EXPECT_EQ(graph->FindNode("range_1")->GetInt(kAttrCount), 20);
  const NodeDef* root = graph->FindNode(graph->output());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->op, "concatenate");
  EXPECT_EQ(root->inputs, (std::vector<std::string>{"map", "map_1"}));
}

TEST(FlowTest, AutoNamesNeverCollide) {
  Session session = MakeTestSession();
  Flow flow = session.Range(100);
  for (int i = 0; i < 5; ++i) flow = flow.Map("noop");
  auto graph = flow.Graph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_TRUE(graph->Validate().ok());
  EXPECT_EQ(graph->nodes().size(), 6u);
  EXPECT_NE(graph->FindNode("map_4"), nullptr);
}

TEST(FlowTest, NamedRejectsCollisions) {
  Session session = MakeTestSession();
  const Flow flow = session.Range(10).Map("noop").Map("noop");
  const Flow renamed = flow.Named("map");  // "map" is already taken
  EXPECT_EQ(renamed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(renamed.Graph().ok());
  // A fresh name works and becomes the output node.
  const Flow ok = flow.Named("augment");
  auto graph = ok.Graph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->output(), "augment");
}

TEST(FlowTest, ZipAcrossSessionsFails) {
  Session a = MakeTestSession();
  Session b = MakeTestSession();
  const Flow zipped = Flow::Zip({a.Range(5), b.Range(5)});
  EXPECT_EQ(zipped.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlowTest, UnboundFlowReportsFailedPrecondition) {
  const Flow flow;
  EXPECT_EQ(flow.Graph().status().code(), StatusCode::kFailedPrecondition);
  RunOptions window;
  window.max_batches = 1;
  EXPECT_FALSE(flow.Run(window).ok());
}

TEST(FlowTest, FromGraphRequiresOutput) {
  Session session = MakeTestSession();
  EXPECT_EQ(session.FromGraph(GraphDef()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, BuildRejectsDuplicateNodeNames) {
  // Regression: duplicates used to be silently dropped by the builder
  // (the add was asserted away in release builds), yielding a graph
  // missing the second definition. Build() must fail loudly instead.
  GraphBuilder b;
  b.Range("src", 5);
  b.Map("stage", "src", "noop");
  b.Map("stage", "stage", "slow");  // duplicate name
  auto built = b.Build("stage");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// Serialize/Parse round-trip over every op the Flow API can emit, with
// randomized parameters and random Zip/Concatenate branching.
TEST(FlowTest, SerializeParseRoundTripCoversEveryFlowOp) {
  Session session = MakeTestSession();

  // One deterministic program containing every operator at least once.
  const Flow records = session.Files("data/").TfRecord().Cache();
  const Flow images = session.Files("data/")
                          .Interleave(2, 2, 3)
                          .Map("slow", 4, false)
                          .SequentialMap("noop")
                          .Filter("keep_half")
                          .Shuffle(32, 5);
  const Flow counters = session.Range(1000).Skip(3).Take(500).Repeat(2);
  const Flow all = Flow::Zip({Flow::Concatenate({records, counters}), images})
                       .ShuffleAndRepeat(64, -1, 9)
                       .MapAndBatch("noop", 4, 2, false)
                       .Batch(2, true)
                       .Prefetch(8);
  auto graph = all.Graph();
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto reparsed = GraphDef::Parse(graph->Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->Serialize(), graph->Serialize());

  // Property: random chains with random parameters round-trip exactly.
  Rng rng(20260728);
  for (int iter = 0; iter < 40; ++iter) {
    auto random_chain = [&]() {
      Flow flow = rng.Bernoulli(0.5)
                      ? session.Files("data/").TfRecord()
                      : session.Range(rng.UniformRange(1, 1 << 20));
      const int length = static_cast<int>(rng.UniformRange(1, 6));
      for (int i = 0; i < length; ++i) {
        switch (rng.UniformInt(12)) {
          case 0: flow = flow.Map("noop", rng.UniformRange(1, 16)); break;
          case 1: flow = flow.SequentialMap("rand_aug"); break;
          case 2: flow = flow.Filter("keep_half"); break;
          case 3: flow = flow.Shuffle(rng.UniformRange(1, 1024)); break;
          case 4:
            flow = flow.ShuffleAndRepeat(rng.UniformRange(1, 1024),
                                         rng.UniformRange(-1, 8));
            break;
          case 5: flow = flow.Repeat(rng.UniformRange(-1, 8)); break;
          case 6: flow = flow.Take(rng.UniformRange(1, 1 << 16)); break;
          case 7: flow = flow.Skip(rng.UniformRange(0, 1 << 16)); break;
          case 8: flow = flow.Batch(rng.UniformRange(1, 512)); break;
          case 9: flow = flow.Prefetch(rng.UniformRange(1, 64)); break;
          case 10: flow = flow.Cache(); break;
          default:
            flow = flow.MapAndBatch("noop", rng.UniformRange(1, 64),
                                    rng.UniformRange(1, 8));
            break;
        }
      }
      return flow;
    };
    Flow flow = random_chain();
    if (rng.Bernoulli(0.4)) {
      const std::vector<Flow> branches = {flow, random_chain()};
      flow = rng.Bernoulli(0.5) ? Flow::Zip(branches)
                                : Flow::Concatenate(branches);
    }
    auto g = flow.Graph();
    ASSERT_TRUE(g.ok()) << g.status();
    auto rt = GraphDef::Parse(g->Serialize());
    ASSERT_TRUE(rt.ok()) << rt.status() << "\n" << g->Serialize();
    EXPECT_EQ(rt->Serialize(), g->Serialize());
    EXPECT_EQ(rt->output(), g->output());
  }
}

TEST(FlowTest, RunReportsPlausibleRates) {
  Session session = MakeTestSession();
  const Flow flow = session.Files("data/")
                        .Interleave(2, 1)
                        .Map("noop")
                        .ShuffleAndRepeat(8)
                        .Batch(5);
  RunOptions window;
  window.max_seconds = 0.3;
  auto report = flow.Run(window);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->status.ok());
  EXPECT_GT(report->batches, 0);
  EXPECT_EQ(report->elements, report->batches * 5);
  EXPECT_GT(report->bytes_produced, 0u);
  EXPECT_GT(report->wall_seconds, 0);
  EXPECT_GT(report->batches_per_second, 0);
  EXPECT_GT(report->elements_per_second, report->batches_per_second);
  EXPECT_FALSE(report->node_stats.empty());
  const IteratorStatsSnapshot* batch = report->FindNode("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->elements_produced, static_cast<uint64_t>(report->batches));
}

TEST(FlowTest, OptimizeSpeedsUpMisconfiguredFlow) {
  Session session = MakeTestSession(8);
  ASSERT_TRUE(session.CreateRecordFiles("big/f", 4, 200, 64).ok());
  // 200us/element at parallelism 1: exactly the misconfigured starting
  // point of the paper's evaluation.
  const Flow flow = session.Files("big/")
                        .Interleave(2, 1)
                        .Map("slow")
                        .ShuffleAndRepeat(16)
                        .Batch(5);
  auto optimized = flow.Optimize();
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  EXPECT_GT(optimized->plan.predicted_rate, 0);
  auto tuned_graph = optimized->Graph();
  ASSERT_TRUE(tuned_graph.ok());
  // Root must now be a prefetch (the optimizer's injected root).
  EXPECT_EQ(tuned_graph->FindNode(tuned_graph->output())->op, "prefetch");

  RunOptions window;
  window.max_seconds = 0.4;
  double naive = 0, tuned = 0;
  EXPECT_TRUE(testing_util::EventuallyTrue([&] {
    const auto naive_report = flow.Run(window);
    naive = naive_report.ok() ? naive_report->batches_per_second : 0;
    const auto tuned_report = optimized->Run(window);
    tuned = tuned_report.ok() ? tuned_report->batches_per_second : 0;
    return naive > 0 && tuned > naive * 2;
  })) << "tuned=" << tuned << " naive=" << naive;
}

TEST(FlowTest, OptimizeWithRunsTheGivenScheduleAndReports) {
  Session session = MakeTestSession(8);
  ASSERT_TRUE(session.CreateRecordFiles("big/f", 4, 200, 64).ok());
  const Flow flow = session.Files("big/")
                        .Interleave(2, 1)
                        .Map("slow")
                        .ShuffleAndRepeat(16)
                        .Batch(5);
  auto optimized = flow.OptimizeWith("parallelism,prefetch");
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  ASSERT_EQ(optimized->pass_reports.size(), 2u);
  EXPECT_EQ(optimized->pass_reports[0].pass, "parallelism");
  EXPECT_EQ(optimized->pass_reports[1].pass, "prefetch");
  EXPECT_GT(optimized->pass_reports[0].plan.predicted_rate, 0);
  auto graph = optimized->Graph();
  ASSERT_TRUE(graph.ok());
  // No cache pass in this schedule, so no cache node appears.
  EXPECT_FALSE(rewriter::HasOp(*graph, "cache"));
  EXPECT_EQ(graph->FindNode(graph->output())->op, "prefetch");

  auto bogus = flow.OptimizeWith("parallelism,bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);

  // An explicitly empty schedule is the no-op baseline (trace only),
  // not the legacy-derived default schedule.
  auto noop = flow.OptimizeWith("");
  ASSERT_TRUE(noop.ok()) << noop.status();
  EXPECT_TRUE(noop->pass_reports.empty());
  EXPECT_GT(noop->traced_rate, 0);
  auto noop_graph = noop->Graph();
  ASSERT_TRUE(noop_graph.ok());
  EXPECT_EQ(noop_graph->Serialize(), flow.Graph()->Serialize());
}

TEST(FlowTest, RunWithWarmupReportsOnlyTheMeasuredWindow) {
  Session session = MakeTestSession();
  const Flow flow = session.Files("data/")
                        .Interleave(2, 1)
                        .Map("noop")
                        .ShuffleAndRepeat(8)
                        .Batch(5);
  RunOptions window;
  window.warmup_seconds = 0.15;
  window.max_seconds = 0.15;
  auto report = flow.Run(window);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->batches, 0);
  // Node counters must cover the measured window only, not the warmup:
  // the root's production count equals the reported batch count.
  const IteratorStatsSnapshot* batch = report->FindNode("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->elements_produced, static_cast<uint64_t>(report->batches));
}

TEST(FlowTest, FlowsSurviveSessionMove) {
  Session session = MakeTestSession();
  const Flow flow = session.Range(50).Batch(5);
  const Session moved = std::move(session);
  RunOptions window;
  window.max_batches = 5;
  auto report = flow.Run(window);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->batches, 5);
}

TEST(SessionTest, IsTheSingleSourceOfTruthForEnvironment) {
  SessionOptions so;
  so.machine.cpu_scale = 1.5;
  so.machine.memory_bytes = 123;
  so.seed = 7;
  Session session(std::move(so));

  const PipelineOptions popts = session.MakePipelineOptions();
  EXPECT_EQ(popts.fs, &session.fs());
  EXPECT_EQ(popts.udfs, &session.udfs());
  EXPECT_EQ(popts.cpu_scale, 1.5);
  EXPECT_EQ(popts.seed, 7u);
  // Cache budget falls back to the machine's memory.
  EXPECT_EQ(popts.memory_budget_bytes, 123u);

  // Environment fields of OptimizeOptions are overwritten wholesale.
  OptimizeOptions oopts;
  oopts.seed = 999;
  oopts.machine.cpu_scale = 9.0;
  oopts.trace_seconds = 0.125;  // tuning knob: preserved
  session.ApplyTo(&oopts);
  EXPECT_EQ(oopts.fs, &session.fs());
  EXPECT_EQ(oopts.udfs, &session.udfs());
  EXPECT_EQ(oopts.seed, 7u);
  EXPECT_EQ(oopts.machine.cpu_scale, 1.5);
  EXPECT_EQ(oopts.trace_seconds, 0.125);
  // And the optimizer derives PipelineOptions from those in one place.
  const PipelineOptions derived = oopts.MakePipelineOptions();
  EXPECT_EQ(derived.cpu_scale, 1.5);
  EXPECT_EQ(derived.seed, 7u);
  EXPECT_EQ(derived.memory_budget_bytes, 123u);
}

}  // namespace
}  // namespace plumber
