// Identity tests for worker-pool claim sizes: the max_claim cap must
// change throughput, never results. Every pipeline here is checked
// element for element (or by fingerprint where emission order is
// nondeterministic) at each cap in kCaps against the cap-1 run, which
// is the element-at-a-time engine, and against the sequential reference
// where one exists.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::ExpectIdenticalOutput;
using testing_util::PipelineTestEnv;

// 1 is element-at-a-time and 64 the default. 7 divides none of the
// batch sizes (4, 5) or record counts (20, 25, 100) below, so claims
// straddle batch and file boundaries.
constexpr int kCaps[] = {1, 7, 64};

std::vector<Element> RunChain(PipelineTestEnv& env, const GraphDef& graph,
                              int max_claim) {
  PipelineOptions options = env.Options();
  options.max_claim = max_claim;
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  return Drain(*pipeline);
}

// Drains `graph` at every cap and compares each run with the cap-1 run.
void ExpectIdenticalAtEveryCap(PipelineTestEnv& env, const GraphDef& graph) {
  const auto reference = RunChain(env, graph, 1);
  ASSERT_FALSE(reference.empty());
  for (int cap : kCaps) {
    SCOPED_TRACE("max_claim=" + std::to_string(cap));
    ExpectIdenticalOutput(reference, RunChain(env, graph, cap));
  }
}

// As above for pools whose emission order is nondeterministic: the
// order-insensitive fingerprint plus totals.
void ExpectSameFingerprintAtEveryCap(PipelineTestEnv& env,
                                     const GraphDef& graph,
                                     size_t expected_size) {
  const auto reference = RunChain(env, graph, 1);
  ASSERT_EQ(reference.size(), expected_size);
  for (int cap : kCaps) {
    EXPECT_EQ(testing_util::SizeFingerprint(reference),
              testing_util::SizeFingerprint(RunChain(env, graph, cap)))
        << "max_claim=" << cap;
  }
}

IteratorStatsSnapshot FindStats(const Pipeline& pipeline,
                                const std::string& name) {
  for (const auto& s : pipeline.stats().Snapshot()) {
    if (s.name == name) return s;
  }
  return IteratorStatsSnapshot{};
}

GraphDef DeterministicMapChain(int parallelism) {
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "double_size", parallelism, /*deterministic=*/true);
  n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
  return std::move(b.Build(n)).value();
}

TEST(EngineBatchTest, ParallelMapMatchesSequentialReferenceAtEveryCap) {
  // The deterministic parallel map's contract is "identical to the
  // sequential map", whatever size its claims take.
  PipelineTestEnv env(4, 25, 48);
  const auto sequential = RunChain(env, DeterministicMapChain(1), 1);
  ASSERT_FALSE(sequential.empty());
  for (int cap : kCaps) {
    SCOPED_TRACE("max_claim=" + std::to_string(cap));
    ExpectIdenticalOutput(sequential,
                          RunChain(env, DeterministicMapChain(4), cap));
  }
}

TEST(EngineBatchTest, PrefetchAndInterleaveIdentical) {
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 4,
                        /*parallelism=*/3);
  n = b.Map("m", n, "double_size", 2, /*deterministic=*/true);
  n = b.Prefetch("pf", n, 8);
  ExpectSameFingerprintAtEveryCap(env, std::move(b.Build(n)).value(), 100);
}

TEST(EngineBatchTest, PrefetchSpscEdgeIdenticalAtEveryCap) {
  // Prefetch edges always ride the lock-free SPSC ring (the fill thread
  // and the consumer are structurally 1:1), which also caps the fill
  // worker's claims. With a deterministic chain upstream, output must
  // stay byte-identical at every cap — the ring's FIFO identity
  // observed end to end, not just at the channel level.
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "double_size", 4, /*deterministic=*/true);
  n = b.Prefetch("pf", n, 4);
  n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
  ExpectIdenticalAtEveryCap(env, std::move(b.Build(n)).value());
}

TEST(EngineBatchTest, GovernorRetargetUnderSpscEdgesIdentical) {
  // A governor-retargetable map keeps its MPMC channel, but the
  // prefetch downstream rides the SPSC ring. Element identity and
  // deterministic ordering must hold under any resize history while
  // both channel kinds are live in the same chain.
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "slow", 4, /*deterministic=*/true);
  n = b.Prefetch("pf", n, 8);
  n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
  const GraphDef graph = std::move(b.Build(n)).value();
  const auto reference = RunChain(env, graph, 1);
  ASSERT_FALSE(reference.empty());

  for (int cap : kCaps) {
    PipelineOptions options = env.Options();
    options.max_claim = cap;
    options.governor = std::make_shared<ParallelismGovernor>();
    auto pipeline = std::move(Pipeline::Create(graph, options)).value();
    std::atomic<bool> stop{false};
    std::thread flipper([&] {
      int target = 1;
      while (!stop.load()) {
        options.governor->SetTarget("m", target);
        target = target % 6 + 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const auto retargeted = Drain(*pipeline);
    stop = true;
    flipper.join();
    SCOPED_TRACE("max_claim=" + std::to_string(cap));
    ExpectIdenticalOutput(reference, retargeted);
  }
}

TEST(EngineBatchTest, FilterIdenticalAtEveryCap) {
  // The sequential filter claims whole runs from its input when a
  // multi-element consumer (here: parallel map workers) drives it;
  // dropped elements and survivors must be identical at every cap.
  PipelineTestEnv env(4, 25, 48);
  for (const char* predicate : {"keep_half", "keep_all"}) {
    SCOPED_TRACE(predicate);
    GraphBuilder b;
    auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
    n = b.Filter("flt", n, predicate);
    n = b.Map("m", n, "double_size", 4, /*deterministic=*/true);
    n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
    ExpectIdenticalAtEveryCap(env, std::move(b.Build(n)).value());
  }
}

TEST(EngineBatchTest, FilterStatsConservationAtEveryCap) {
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Filter("flt", n, "keep_half");
  n = b.Map("m", n, "noop", 4, /*deterministic=*/true);
  const GraphDef graph = std::move(b.Build(n)).value();
  for (int cap : kCaps) {
    SCOPED_TRACE("max_claim=" + std::to_string(cap));
    PipelineOptions options = env.Options();
    options.max_claim = cap;
    auto pipeline = std::move(Pipeline::Create(graph, options)).value();
    const size_t kept = Drain(*pipeline).size();
    // The filter consumed everything the interleave produced and
    // produced exactly what the map consumed (= what the drain kept).
    EXPECT_EQ(FindStats(*pipeline, "il").elements_produced, 100u);
    EXPECT_EQ(FindStats(*pipeline, "flt").elements_consumed, 100u);
    EXPECT_EQ(FindStats(*pipeline, "flt").elements_produced, kept);
    EXPECT_EQ(FindStats(*pipeline, "m").elements_consumed, kept);
    EXPECT_GT(kept, 0u);
    EXPECT_LT(kept, 100u);  // keep_half actually dropped elements
  }
}

TEST(EngineBatchTest, ShuffleRefillClaimsIdentical) {
  // The shuffle refill claims its whole buffer deficit from the input
  // per GetNextBatch call; elements arrive in the order repeated
  // GetNext would deliver, so draws — and therefore outputs — are
  // identical at every cap, including across a parallel (deterministic)
  // producer.
  PipelineTestEnv env(4, 25, 48);
  for (const bool fused_repeat : {false, true}) {
    SCOPED_TRACE(fused_repeat ? "shuffle_and_repeat" : "shuffle");
    GraphBuilder b;
    auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
    n = b.Map("m", n, "double_size", 4, /*deterministic=*/true);
    n = fused_repeat ? b.ShuffleAndRepeat("shf", n, 32, /*count=*/2)
                     : b.Shuffle("shf", n, 32, 7);
    n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
    ExpectIdenticalAtEveryCap(env, std::move(b.Build(n)).value());
  }
}

TEST(EngineBatchTest, ShuffleStatsConservationAtEveryCap) {
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "double_size", 4, /*deterministic=*/true);
  n = b.Shuffle("shf", n, 32, 7);
  const GraphDef graph = std::move(b.Build(n)).value();
  for (int cap : kCaps) {
    SCOPED_TRACE("max_claim=" + std::to_string(cap));
    PipelineOptions options = env.Options();
    options.max_claim = cap;
    auto pipeline = std::move(Pipeline::Create(graph, options)).value();
    // Multi-element refill claims must count every element exactly once.
    EXPECT_EQ(Drain(*pipeline).size(), 100u);
    EXPECT_EQ(FindStats(*pipeline, "shf").elements_consumed, 100u);
    EXPECT_EQ(FindStats(*pipeline, "shf").elements_produced, 100u);
    EXPECT_EQ(FindStats(*pipeline, "m").elements_produced, 100u);
  }
}

TEST(EngineBatchTest, CombineOpsIdenticalAtEveryCap) {
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto left = b.Map("lm", b.Interleave("il", b.FileList("f", "data/"), 2, 1),
                    "noop", 2);
  auto right = b.Range("r", 100);
  auto zipped = b.Zip("z", {left, right});
  auto n = b.Concatenate("cat", {zipped, b.Range("r2", 7)});
  n = b.Batch("bt", n, 5, /*drop_remainder=*/false);
  ExpectIdenticalAtEveryCap(env, std::move(b.Build(n)).value());
}

TEST(EngineBatchTest, StatsConservationAtEveryCap) {
  // The LP planner consumes these counters; claim sizes must not change
  // the sums (sharded counters aggregate exactly).
  PipelineTestEnv env(4, 25, 48);
  for (int cap : kCaps) {
    SCOPED_TRACE("max_claim=" + std::to_string(cap));
    PipelineOptions options = env.Options();
    options.max_claim = cap;
    auto pipeline =
        std::move(Pipeline::Create(DeterministicMapChain(4), options)).value();
    Drain(*pipeline);
    const auto il = FindStats(*pipeline, "il");
    const auto m = FindStats(*pipeline, "m");
    const auto bt = FindStats(*pipeline, "bt");
    EXPECT_EQ(il.elements_produced, 100u);
    EXPECT_EQ(m.elements_consumed, il.elements_produced);
    EXPECT_EQ(m.elements_produced, 100u);
    EXPECT_EQ(bt.elements_consumed, m.elements_produced);
    EXPECT_EQ(bt.elements_produced, 25u);
  }
}

TEST(EngineBatchTest, RetiredEngineBatchAttrIsIgnored) {
  // Graphs serialized when the engine batch size was a graph attr still
  // parse and run; the attr no longer changes anything.
  PipelineTestEnv env(4, 25, 48);
  GraphDef graph = DeterministicMapChain(4);
  graph.MutableNode(graph.output())->attrs["engine_batch_size"] =
      AttrValue(64);
  auto parsed = GraphDef::Parse(graph.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectIdenticalOutput(RunChain(env, DeterministicMapChain(4), 1),
                        RunChain(env, *parsed, 1));
}

}  // namespace
}  // namespace plumber
