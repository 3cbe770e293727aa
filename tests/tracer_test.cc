// Tests for the tracer: snapshot contents, stat resets, the serialized
// dump (every trace is a valid, rewritable program), and anytime
// snapshots.
#include "src/core/tracer.h"

#include <gtest/gtest.h>

#include "src/core/model.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::PipelineTestEnv;

GraphDef SimpleGraph() {
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 1);
  n = b.Map("grow", n, "double_size");
  n = b.ShuffleAndRepeat("sr", n, 8);
  n = b.Batch("batch", n, 5);
  return std::move(b.Build(n)).value();
}

TEST(TracerTest, SnapshotContainsEveryNode) {
  PipelineTestEnv env(4, 25, 64);
  auto pipeline =
      std::move(Pipeline::Create(SimpleGraph(), env.Options())).value();
  TraceOptions options;
  options.trace_seconds = 0.15;
  options.machine = MachineSpec::SetupA();
  const TraceSnapshot trace = CaptureTrace(*pipeline, options);
  pipeline->Cancel();
  for (const char* name : {"interleave", "grow", "sr", "batch"}) {
    EXPECT_NE(trace.FindStats(name), nullptr) << name;
  }
  EXPECT_EQ(trace.FindStats("nonexistent"), nullptr);
  EXPECT_GT(trace.root_completions, 0u);
  EXPECT_GT(trace.observed_rate, 0);
  EXPECT_NEAR(trace.wall_seconds, 0.15, 0.1);
}

TEST(TracerTest, ReadLogCoversSourceFiles) {
  PipelineTestEnv env(4, 25, 64);
  auto pipeline =
      std::move(Pipeline::Create(SimpleGraph(), env.Options())).value();
  TraceOptions options;
  options.trace_seconds = 0.2;
  options.machine = MachineSpec::SetupA();
  const TraceSnapshot trace = CaptureTrace(*pipeline, options);
  pipeline->Cancel();
  EXPECT_FALSE(trace.read_log.empty());
  for (const auto& [file, entry] : trace.read_log) {
    EXPECT_EQ(file.rfind("data/", 0), 0u) << file;
    EXPECT_GT(entry.bytes_read, 0u);
    EXPECT_GT(entry.file_size, 0u);
  }
  auto it = trace.files_per_prefix.find("data/");
  ASSERT_NE(it, trace.files_per_prefix.end());
  EXPECT_EQ(it->second, 4u);
}

TEST(TracerTest, ResetStatsClearsPriorWindow) {
  PipelineTestEnv env(4, 25, 64);
  auto pipeline =
      std::move(Pipeline::Create(SimpleGraph(), env.Options())).value();
  TraceOptions options;
  options.trace_seconds = 0.1;
  options.machine = MachineSpec::SetupA();
  const TraceSnapshot first = CaptureTrace(*pipeline, options);
  // Every trace resets first: counters reflect only the second window.
  const TraceSnapshot second = CaptureTrace(*pipeline, options);
  const auto* batch1 = first.FindStats("batch");
  const auto* batch2 = second.FindStats("batch");
  ASSERT_NE(batch1, nullptr);
  ASSERT_NE(batch2, nullptr);
  // Same window length: the second count is of the same order, not
  // cumulative (would be ~2x with no reset).
  EXPECT_LT(batch2->elements_produced, batch1->elements_produced * 2);
  pipeline->Cancel();
}

TEST(TracerTest, SerializedDumpRoundTripsTheProgram) {
  PipelineTestEnv env(4, 25, 64);
  auto pipeline =
      std::move(Pipeline::Create(SimpleGraph(), env.Options())).value();
  TraceOptions options;
  options.trace_seconds = 0.1;
  options.machine = MachineSpec::SetupA();
  const TraceSnapshot trace = CaptureTrace(*pipeline, options);
  pipeline->Cancel();
  const std::string dump = trace.Serialize();
  // The dump embeds the whole program and one stat line per node.
  EXPECT_NE(dump.find("interleave"), std::string::npos);
  EXPECT_NE(dump.find("stat batch"), std::string::npos);
  EXPECT_NE(dump.find("file data/"), std::string::npos);
  // The graph section parses back into the same program (the paper's
  // "all traces are valid programs").
  auto reparsed = GraphDef::Parse(trace.graph.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->nodes().size(), trace.graph.nodes().size());
  EXPECT_EQ(reparsed->output(), trace.graph.output());
}

TEST(TracerTest, AnytimeSnapshotWithoutRunning) {
  PipelineTestEnv env(4, 25, 64);
  auto pipeline =
      std::move(Pipeline::Create(SimpleGraph(), env.Options())).value();
  // Accumulate some work outside the tracer.
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
  }
  const TraceSnapshot trace =
      SnapshotFromPipeline(*pipeline, /*wall_seconds=*/1.0,
                           MachineSpec::SetupA());
  pipeline->Cancel();
  const auto* batch = trace.FindStats("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->elements_produced, 10u);
  EXPECT_EQ(trace.root_completions, 10u);
  EXPECT_DOUBLE_EQ(trace.observed_rate, 10.0);
}

TEST(TracerTest, TraceFeedsModelBuildUnchanged) {
  // The snapshot is sufficient input for the model: build succeeds and
  // the model's observed rate is the trace's.
  PipelineTestEnv env(4, 25, 64);
  auto pipeline =
      std::move(Pipeline::Create(SimpleGraph(), env.Options())).value();
  TraceOptions options;
  options.trace_seconds = 0.15;
  options.machine = MachineSpec::SetupB();
  const TraceSnapshot trace = CaptureTrace(*pipeline, options);
  pipeline->Cancel();
  auto model = PipelineModel::Build(trace, &env.udfs);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->observed_rate(), trace.observed_rate);
  EXPECT_EQ(model->machine().name, "setup_b");
}

TEST(TracerTest, MaxBatchesCapStopsEarly) {
  PipelineTestEnv env(4, 25, 64);
  auto pipeline =
      std::move(Pipeline::Create(SimpleGraph(), env.Options())).value();
  TraceOptions options;
  options.trace_seconds = 10.0;  // would be far too long...
  options.max_batches = 3;       // ...but the cap stops it
  options.machine = MachineSpec::SetupA();
  const TraceSnapshot trace = CaptureTrace(*pipeline, options);
  pipeline->Cancel();
  EXPECT_EQ(trace.root_completions, 3u);
  EXPECT_LT(trace.wall_seconds, 5.0);
}

}  // namespace
}  // namespace plumber
