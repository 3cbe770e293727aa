// Per-operator correctness tests for the pipeline engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "src/pipeline/ops.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::PipelineTestEnv;
using testing_util::SizeFingerprint;

std::unique_ptr<Pipeline> MakePipeline(PipelineTestEnv& env, GraphDef graph,
                                       uint64_t memory_budget = 0) {
  auto p = Pipeline::Create(std::move(graph), env.Options(memory_budget));
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(RangeOpTest, ProducesCountElements) {
  PipelineTestEnv env;
  GraphBuilder b;
  auto graph = std::move(b.Build(b.Range("r", 10))).value();
  auto pipeline = MakePipeline(env, graph);
  const auto elements = Drain(*pipeline);
  ASSERT_EQ(elements.size(), 10u);
  for (size_t i = 0; i < elements.size(); ++i) {
    EXPECT_EQ(elements[i].sequence, i);
    EXPECT_EQ(elements[i].TotalBytes(), sizeof(int64_t));
  }
}

TEST(FileListOpTest, YieldsAllFilenames) {
  PipelineTestEnv env(/*num_files=*/3);
  GraphBuilder b;
  auto graph = std::move(b.Build(b.FileList("files", "data/"))).value();
  auto pipeline = MakePipeline(env, graph);
  const auto elements = Drain(*pipeline);
  ASSERT_EQ(elements.size(), 3u);
  std::set<std::string> names;
  for (const auto& e : elements) {
    names.emplace(e.components[0].begin(), e.components[0].end());
  }
  EXPECT_TRUE(names.count("data/f0"));
  EXPECT_TRUE(names.count("data/f2"));
}

TEST(TfRecordOpTest, ReadsEveryRecordOnce) {
  PipelineTestEnv env(/*num_files=*/3, /*records_per_file=*/10);
  GraphBuilder b;
  auto graph =
      std::move(b.Build(b.TfRecord("rec", b.FileList("files", "data/"))))
          .value();
  auto pipeline = MakePipeline(env, graph);
  const auto elements = Drain(*pipeline);
  EXPECT_EQ(elements.size(), 30u);
  for (const auto& e : elements) EXPECT_EQ(e.TotalBytes(), 64u);
}

TEST(InterleaveOpTest, SequentialReadsAllRecords) {
  PipelineTestEnv env(/*num_files=*/4, /*records_per_file=*/7);
  GraphBuilder b;
  auto graph = std::move(b.Build(b.Interleave(
                             "il", b.FileList("files", "data/"), 2, 1)))
                   .value();
  auto pipeline = MakePipeline(env, graph);
  EXPECT_EQ(Drain(*pipeline).size(), 28u);
}

TEST(InterleaveOpTest, SequentialRoundRobinsAcrossFiles) {
  // Two files with distinct record sizes: cycle_length 2 and block 1
  // must alternate between them.
  PipelineTestEnv env(0);
  ASSERT_TRUE(env.fs.CreateRecordFile("mix/a", 1, {10, 10, 10}).ok());
  ASSERT_TRUE(env.fs.CreateRecordFile("mix/b", 2, {20, 20, 20}).ok());
  GraphBuilder b;
  auto graph = std::move(b.Build(b.Interleave(
                             "il", b.FileList("files", "mix/"), 2, 1)))
                   .value();
  auto pipeline = MakePipeline(env, graph);
  const auto elements = Drain(*pipeline);
  ASSERT_EQ(elements.size(), 6u);
  EXPECT_EQ(elements[0].TotalBytes(), 10u);
  EXPECT_EQ(elements[1].TotalBytes(), 20u);
  EXPECT_EQ(elements[2].TotalBytes(), 10u);
  EXPECT_EQ(elements[3].TotalBytes(), 20u);
}

class InterleaveParallelismTest : public ::testing::TestWithParam<int> {};

TEST_P(InterleaveParallelismTest, ParallelReadsAllRecordsExactlyOnce) {
  PipelineTestEnv env(/*num_files=*/6, /*records_per_file=*/11);
  GraphBuilder b;
  auto graph = std::move(b.Build(b.Interleave("il",
                                              b.FileList("files", "data/"),
                                              4, GetParam())))
                   .value();
  auto pipeline = MakePipeline(env, graph);
  EXPECT_EQ(Drain(*pipeline).size(), 66u);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, InterleaveParallelismTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(MapOpTest, SequentialAppliesSizeRatio) {
  PipelineTestEnv env(2, 5, 100);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "double_size");
  auto graph = std::move(b.Build(n)).value();
  auto pipeline = MakePipeline(env, graph);
  const auto elements = Drain(*pipeline);
  ASSERT_EQ(elements.size(), 10u);
  for (const auto& e : elements) EXPECT_EQ(e.TotalBytes(), 200u);
}

class ParallelMapTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMapTest, ParallelMatchesSequentialOutput) {
  PipelineTestEnv env(2, 20, 50);
  auto build = [&](int parallelism, bool deterministic) {
    GraphBuilder b;
    auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
    n = b.Map("m", n, "double_size", parallelism, deterministic);
    return std::move(b.Build(n)).value();
  };
  auto seq_pipeline = MakePipeline(env, build(1, true));
  const auto seq = Drain(*seq_pipeline);
  auto par_pipeline = MakePipeline(env, build(GetParam(), true));
  const auto par = Drain(*par_pipeline);
  ASSERT_EQ(seq.size(), par.size());
  // Deterministic parallel map preserves order and content exactly.
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].components, par[i].components) << "at " << i;
  }
}

TEST_P(ParallelMapTest, NonDeterministicSameMultiset) {
  PipelineTestEnv env(2, 20, 50);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "double_size", GetParam(), /*deterministic=*/false);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  const auto elements = Drain(*pipeline);
  EXPECT_EQ(elements.size(), 40u);
  for (const auto& e : elements) EXPECT_EQ(e.TotalBytes(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, ParallelMapTest,
                         ::testing::Values(2, 4, 7));

TEST(FilterOpTest, KeepAllPassesEverything) {
  PipelineTestEnv env(2, 10);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Filter("f", n, "keep_all");
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  EXPECT_EQ(Drain(*pipeline).size(), 20u);
}

TEST(FilterOpTest, KeepHalfDropsRoughlyHalf) {
  PipelineTestEnv env(4, 100);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Filter("f", n, "keep_half");
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  const size_t kept = Drain(*pipeline).size();
  EXPECT_GT(kept, 120u);
  EXPECT_LT(kept, 280u);
}

TEST(ShuffleOpTest, OutputIsPermutationOfInput) {
  PipelineTestEnv env(2, 30, 32);
  auto build = [&](bool shuffled) {
    GraphBuilder b;
    auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
    if (shuffled) n = b.Shuffle("s", n, 16);
    return std::move(b.Build(n)).value();
  };
  auto plain_pipeline = MakePipeline(env, build(false));
  auto shuffled_pipeline = MakePipeline(env, build(true));
  const auto plain = Drain(*plain_pipeline);
  const auto shuffled = Drain(*shuffled_pipeline);
  ASSERT_EQ(plain.size(), shuffled.size());
  // Same multiset of sequences, different order.
  std::multiset<uint64_t> a, c;
  bool any_moved = false;
  for (size_t i = 0; i < plain.size(); ++i) {
    a.insert(plain[i].sequence);
    c.insert(shuffled[i].sequence);
    any_moved |= plain[i].sequence != shuffled[i].sequence;
  }
  EXPECT_EQ(a, c);
  EXPECT_TRUE(any_moved);
}

TEST(ShuffleOpTest, DeterministicForSameSeed) {
  PipelineTestEnv env(2, 20, 32);
  auto build = [&]() {
    GraphBuilder b;
    auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
    n = b.Shuffle("s", n, 8, /*seed=*/33);
    return std::move(b.Build(n)).value();
  };
  auto p1 = MakePipeline(env, build());
  auto p2 = MakePipeline(env, build());
  const auto a = Drain(*p1);
  const auto b2 = Drain(*p2);
  ASSERT_EQ(a.size(), b2.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sequence, b2[i].sequence);
  }
}

TEST(RepeatOpTest, FiniteCountMultiplies) {
  PipelineTestEnv env(2, 5);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Repeat("r", n, 3);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  EXPECT_EQ(Drain(*pipeline).size(), 30u);
}

TEST(RepeatOpTest, InfiniteKeepsProducing) {
  PipelineTestEnv env(1, 4);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Repeat("r", n, -1);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  EXPECT_EQ(Drain(*pipeline, 100).size(), 100u);
}

TEST(ShuffleAndRepeatOpTest, InfiniteProducesBeyondOneEpoch) {
  PipelineTestEnv env(2, 10);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.ShuffleAndRepeat("sr", n, 8);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  EXPECT_EQ(Drain(*pipeline, 75).size(), 75u);
}

TEST(ShuffleAndRepeatOpTest, FiniteCountStops) {
  PipelineTestEnv env(2, 10);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.ShuffleAndRepeat("sr", n, 8, /*count=*/2);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  EXPECT_EQ(Drain(*pipeline).size(), 40u);
}

TEST(TakeSkipOpTest, TakeLimits) {
  PipelineTestEnv env(2, 10);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Take("t", n, 7);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  EXPECT_EQ(Drain(*pipeline).size(), 7u);
}

TEST(TakeSkipOpTest, SkipDrops) {
  PipelineTestEnv env(2, 10);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Skip("s", n, 15);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  EXPECT_EQ(Drain(*pipeline).size(), 5u);
}

TEST(BatchOpTest, GroupsComponentsAndDropsRemainder) {
  PipelineTestEnv env(2, 10, 30);  // 20 records
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Batch("batch", n, 8, /*drop_remainder=*/true);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  const auto batches = Drain(*pipeline);
  ASSERT_EQ(batches.size(), 2u);  // 20/8 = 2 full batches
  for (const auto& batch : batches) {
    EXPECT_EQ(batch.components.size(), 8u);
    EXPECT_EQ(batch.TotalBytes(), 8 * 30u);
  }
}

TEST(BatchOpTest, KeepRemainder) {
  PipelineTestEnv env(2, 10, 30);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Batch("batch", n, 8, /*drop_remainder=*/false);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  const auto batches = Drain(*pipeline);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches.back().components.size(), 4u);
}

TEST(PrefetchOpTest, PassesThroughAllElements) {
  PipelineTestEnv env(2, 25);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Prefetch("p", n, 4);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  EXPECT_EQ(Drain(*pipeline).size(), 50u);
}

TEST(PrefetchOpTest, EarlyDestructionDoesNotHang) {
  PipelineTestEnv env(2, 1000);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Prefetch("p", n, 8);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end;
  ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
  iterator.reset();  // must join the prefetch thread cleanly
}

TEST(CacheOpTest, SecondEpochServesIdenticalElements) {
  PipelineTestEnv env(2, 10, 40);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Cache("c", n);
  n = b.Repeat("r", n, 2);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  const auto elements = Drain(*pipeline);
  ASSERT_EQ(elements.size(), 40u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(elements[i].components, elements[i + 20].components);
  }
}

TEST(CacheOpTest, SecondEpochAvoidsStorageReads) {
  PipelineTestEnv env(2, 10, 40);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Cache("c", n);
  n = b.Repeat("r", n, 3);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  Drain(*pipeline);
  // Only one epoch of bytes should have been read from storage.
  const uint64_t expected =
      20 * (40 + kRecordFramingBytes);
  EXPECT_EQ(env.fs.total_bytes_read(), expected);
}

TEST(CacheOpTest, BudgetViolationFails) {
  PipelineTestEnv env(2, 10, 40);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Cache("c", n);
  auto pipeline =
      MakePipeline(env, std::move(b.Build(n)).value(), /*budget=*/100);
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end = false;
  Status status = OkStatus();
  for (int i = 0; i < 10 && status.ok() && !end; ++i) {
    status = iterator->GetNext(&e, &end);
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

// The sequence numbers `iterator` yields, at most `limit` of them; an
// error fails the test.
std::vector<uint64_t> Sequences(IteratorBase* iterator,
                                size_t limit = SIZE_MAX) {
  std::vector<uint64_t> out;
  while (out.size() < limit) {
    Element e;
    bool end = false;
    const Status status = iterator->GetNext(&e, &end);
    EXPECT_TRUE(status.ok()) << status;
    if (!status.ok() || end) break;
    out.push_back(e.sequence);
  }
  return out;
}

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(CacheOpTest, ZipOfOneCacheFillsItOnce) {
  // Both zip inputs read the one cache node. Only one may fill it, so
  // the second epoch still serves each element once per input.
  PipelineTestEnv env;
  GraphBuilder b;
  auto c = b.Cache("c", b.Range("src", 10));
  auto n = b.Repeat("r", b.Zip("z", {c, c}), 2);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  const auto elements = Drain(*pipeline);
  ASSERT_EQ(elements.size(), 20u);
  for (size_t i = 0; i < elements.size(); ++i) {
    EXPECT_EQ(elements[i].sequence, i % 10);
  }
}

TEST(CacheOpTest, FillIsNeitherSharedNorResumed) {
  // One iterator stops four elements into the fill and stays alive
  // while others read: they read the input uncached. Once it is gone,
  // the next iterator restarts the fill instead of appending to it.
  PipelineTestEnv env;
  GraphBuilder b;
  auto pipeline = MakePipeline(
      env, std::move(b.Build(b.Cache("c", b.Range("src", 10)))).value());
  auto partial = std::move(pipeline->MakeIterator()).value();
  ASSERT_EQ(Sequences(partial.get(), 4), Iota(4));
  for (int i = 0; i < 2; ++i) {
    auto reader = std::move(pipeline->MakeIterator()).value();
    EXPECT_EQ(Sequences(reader.get()), Iota(10));
  }
  partial.reset();
  for (int i = 0; i < 2; ++i) {
    auto reader = std::move(pipeline->MakeIterator()).value();
    EXPECT_EQ(Sequences(reader.get()), Iota(10));
  }
}

TEST(CacheOpTest, WriterPulledPastItsEndServesItsFill) {
  // The writer that completed the fill and is pulled again serves the
  // fill a second time; it must not re-read its input into the cache.
  PipelineTestEnv env;
  GraphBuilder b;
  auto pipeline = MakePipeline(
      env, std::move(b.Build(b.Cache("c", b.Range("src", 10)))).value());
  auto writer = std::move(pipeline->MakeIterator()).value();
  ASSERT_EQ(Sequences(writer.get()), Iota(10));
  EXPECT_EQ(Sequences(writer.get()), Iota(10));
  writer.reset();
  auto reader = std::move(pipeline->MakeIterator()).value();
  EXPECT_EQ(Sequences(reader.get()), Iota(10));
}

TEST(CacheOpTest, PartialEpochsFitTheBudget) {
  // take(5) leaves every epoch's fill incomplete. Each epoch restarts
  // the fill, so three epochs fit a budget of eight 8-byte elements.
  PipelineTestEnv env;
  GraphBuilder b;
  auto n = b.Cache("c", b.Range("src", 10));
  n = b.Repeat("r", b.Take("t", n, 5), 3);
  auto pipeline =
      MakePipeline(env, std::move(b.Build(n)).value(), /*budget=*/64);
  auto iterator = std::move(pipeline->MakeIterator()).value();
  std::vector<uint64_t> expected;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (uint64_t i = 0; i < 5; ++i) expected.push_back(i);
  }
  EXPECT_EQ(Sequences(iterator.get()), expected);
}

TEST(PipelineTest, CancellationStopsIteration) {
  PipelineTestEnv env(2, 10);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Repeat("r", n, -1);
  auto pipeline = MakePipeline(env, std::move(b.Build(n)).value());
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end;
  ASSERT_TRUE(iterator->GetNext(&e, &end).ok());
  pipeline->Cancel();
  EXPECT_EQ(iterator->GetNext(&e, &end).code(), StatusCode::kCancelled);
}

TEST(PipelineTest, UnknownOpRejectedAtCreate) {
  PipelineTestEnv env;
  GraphDef g;
  NodeDef bogus;
  bogus.name = "x";
  bogus.op = "frobnicate";
  ASSERT_TRUE(g.AddNode(bogus).ok());
  g.SetOutput("x");
  EXPECT_EQ(Pipeline::Create(std::move(g), env.Options()).status().code(),
            StatusCode::kUnimplemented);
}

TEST(PipelineTest, MissingUdfRejectedAtCreate) {
  PipelineTestEnv env;
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "no_such_udf");
  EXPECT_EQ(Pipeline::Create(std::move(b.Build(n)).value(), env.Options())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(PipelineTest, OpTableChecksInputCountsAndPinsPredicates) {
  struct OpRow {
    const char* op;
    int min_inputs;
    bool fixed;  // exactly min_inputs, else at least
  };
  const std::vector<OpRow> ops = {
      {"range", 0, true},       {"file_list", 0, true},
      {"tfrecord", 1, true},    {"remote_read", 1, true},
      {"interleave", 1, true},  {"map", 1, true},
      {"filter", 1, true},      {"shuffle", 1, true},
      {"repeat", 1, true},      {"shuffle_and_repeat", 1, true},
      {"take", 1, true},        {"skip", 1, true},
      {"batch", 1, true},       {"prefetch", 1, true},
      {"cache", 1, true},       {"zip", 2, false},
      {"concatenate", 2, false}, {"shard_merge", 1, false},
  };
  ASSERT_EQ(ops.size(), 18u);
  PipelineTestEnv env;
  // A graph whose output is an `op` node over `num_inputs` ranges.
  const auto create = [&](const std::string& op, int num_inputs) {
    GraphDef g;
    NodeDef node;
    node.name = "node";
    node.op = op;
    for (int i = 0; i < num_inputs; ++i) {
      NodeDef input;
      input.name = "in" + std::to_string(i);
      input.op = "range";
      EXPECT_TRUE(g.AddNode(input).ok());
      node.inputs.push_back(input.name);
    }
    EXPECT_TRUE(g.AddNode(node).ok());
    g.SetOutput("node");
    return Pipeline::Create(std::move(g), env.Options()).status();
  };
  for (const OpRow& row : ops) {
    std::vector<int> wrong_counts;
    if (row.min_inputs > 0) wrong_counts.push_back(row.min_inputs - 1);
    if (row.fixed) wrong_counts.push_back(row.min_inputs + 1);
    for (int count : wrong_counts) {
      const Status status = create(row.op, count);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << row.op << " with " << count << " inputs: " << status;
      EXPECT_NE(status.message().find(row.op), std::string::npos)
          << status;
    }
    const std::string op = row.op;
    EXPECT_EQ(OpSupportsParallelism(op), op == "map" || op == "interleave")
        << op;
    EXPECT_EQ(OpReadsRecords(op), op == "tfrecord" || op == "remote_read" ||
                                      op == "interleave")
        << op;
    EXPECT_EQ(OpReadsRemote(op), op == "remote_read") << op;
  }
  EXPECT_FALSE(OpSupportsParallelism("frobnicate"));
  EXPECT_FALSE(OpReadsRecords("frobnicate"));
  EXPECT_FALSE(OpReadsRemote("frobnicate"));
}

}  // namespace
}  // namespace plumber
