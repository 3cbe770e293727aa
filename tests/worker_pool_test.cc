// Live retargeting of every governed WorkerPool — the parallel map and
// parallel interleave. A governor can grow and park the pool while the
// pipeline runs, a pre-set target bounds it from the start, and no
// resize history changes the output: element for element for the
// deterministic map, as a multiset for interleave (whose emission order
// is already nondeterministic).
// Also the pool's claim sizing, observed through its claim counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/pipeline/parallelism_governor.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::ExpectIdenticalOutput;
using testing_util::PipelineTestEnv;

// The governed node is always "pool". Each graph spends ~200us of
// modeled work per record, so a drain outlasts many retargets; "pace"
// is that work as a keep-all filter, which leaves bytes untouched.
struct GovernedOp {
  const char* label;
  bool ordered;  // compare element for element (else as a multiset)
  GraphDef (*graph)(int parallelism);
};

void PrintTo(const GovernedOp& op, std::ostream* os) { *os << op.label; }

GraphDef MapGraph(int parallelism) {
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 4, 1);
  n = b.Map("pool", n, "slow", parallelism, /*deterministic=*/true);
  return std::move(b.Build(n)).value();
}

GraphDef InterleaveGraph(int parallelism) {
  GraphBuilder b;
  auto n = b.Interleave("pool", b.FileList("files", "data/"), 4, parallelism);
  n = b.Filter("consume", n, "pace");
  return std::move(b.Build(n)).value();
}

void AddPaceUdf(PipelineTestEnv& env) {
  UdfSpec pace;
  pace.name = "pace";
  pace.cost_ns_per_element = 200e3;
  ASSERT_TRUE(env.udfs.Register(pace).ok());
}

// Order-insensitive but content-exact: the sorted element payloads.
std::vector<std::vector<Buffer>> Multiset(const std::vector<Element>& v) {
  std::vector<std::vector<Buffer>> out;
  for (const Element& e : v) out.push_back(e.components);
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameOutput(const GovernedOp& op, const std::vector<Element>& a,
                      const std::vector<Element>& b) {
  if (op.ordered) {
    ExpectIdenticalOutput(a, b);
  } else {
    EXPECT_EQ(Multiset(a), Multiset(b));
  }
}

int LiveParallelism(Pipeline& pipeline) {
  const IteratorStats* stats = pipeline.stats().Find("pool");
  return stats == nullptr ? -1 : stats->parallelism();
}

// Drains `graph` while a second thread publishes schedule(0),
// schedule(1), ... for "pool" every `period`. Returns the output and
// counts the targets other than `configured` that the live pool took up
// (SetTarget resizes a registered pool synchronously).
std::vector<Element> DrainWhileRetargeting(
    PipelineTestEnv& env, const GraphDef& graph, int configured,
    const std::function<int(int)>& schedule,
    std::chrono::microseconds period, int* observed) {
  PipelineOptions options = env.Options();
  options.governor = std::make_shared<ParallelismGovernor>();
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    for (int i = 0; !stop.load(); ++i) {
      const int target = schedule(i);
      options.governor->SetTarget("pool", target);
      if (target > 0 && target != configured &&
          LiveParallelism(*pipeline) == target) {
        ++*observed;
      }
      std::this_thread::sleep_for(period);
    }
  });
  auto out = Drain(*pipeline);
  stop = true;
  flipper.join();
  return out;
}

class WorkerPoolTest : public ::testing::TestWithParam<GovernedOp> {};

TEST_P(WorkerPoolTest, GovernorResizePreservesOutput) {
  // Distinct record sizes per file make the comparison sensitive to
  // lost or duplicated records, not just counts.
  PipelineTestEnv env(0);
  AddPaceUdf(env);
  for (int f = 0; f < 6; ++f) {
    std::vector<uint64_t> sizes(40, 32 + static_cast<uint64_t>(f) * 8);
    ASSERT_TRUE(env.fs.CreateRecordFile("data/f" + std::to_string(f), f + 1,
                                        std::move(sizes))
                    .ok());
  }
  const GraphDef graph = GetParam().graph(/*parallelism=*/2);
  auto reference = std::move(Pipeline::Create(graph, env.Options())).value();
  const auto expected = Drain(*reference);
  ASSERT_FALSE(expected.empty());

  int observed = 0;
  const auto resized = DrainWhileRetargeting(
      env, graph, /*configured=*/2,
      [](int i) { return i % 4 + 1; },  // 1..4: park below, grow above
      std::chrono::milliseconds(1), &observed);
  ExpectSameOutput(GetParam(), expected, resized);
  EXPECT_GT(observed, 0) << "the pool never took up a published target";
}

TEST_P(WorkerPoolTest, InitialGovernorTargetBoundsThePool) {
  // A pre-set governor target below the configured parallelism must
  // start the pool at the target, and the stats must say so.
  PipelineTestEnv env(4, 25, 64);
  AddPaceUdf(env);
  const GraphDef graph = GetParam().graph(/*parallelism=*/3);
  auto reference = std::move(Pipeline::Create(graph, env.Options())).value();
  const auto expected = Drain(*reference);

  PipelineOptions options = env.Options();
  options.governor = std::make_shared<ParallelismGovernor>();
  options.governor->SetTarget("pool", 1);
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  ExpectSameOutput(GetParam(), expected, Drain(*pipeline));
  EXPECT_EQ(LiveParallelism(*pipeline), 1);
}

TEST_P(WorkerPoolTest, ParkToZeroTargetClampsToOneWorker) {
  // Target 0 means "back to configured"; target 1 is the floor. A
  // brutal flip between them mid-run must still drain every record.
  PipelineTestEnv env(5, 30, 40);
  AddPaceUdf(env);
  const GraphDef graph = GetParam().graph(/*parallelism=*/2);
  auto reference = std::move(Pipeline::Create(graph, env.Options())).value();
  const auto expected = Drain(*reference);

  int observed = 0;
  const auto flipped = DrainWhileRetargeting(
      env, graph, /*configured=*/2, [](int i) { return i % 2 == 0 ? 1 : 0; },
      std::chrono::microseconds(500), &observed);
  ExpectSameOutput(GetParam(), expected, flipped);
  EXPECT_GT(observed, 0) << "the pool never parked to the floor";
}

// elements_consumed / claims of the map "pool" after draining `graph`.
double MeanClaim(PipelineTestEnv& env, const GraphDef& graph,
                 uint64_t* claims) {
  auto pipeline = std::move(Pipeline::Create(graph, env.Options())).value();
  Drain(*pipeline);
  const IteratorStats* stats = pipeline->stats().Find("pool");
  *claims = stats->claims();
  return *claims == 0 ? 0.0
                      : static_cast<double>(stats->elements_consumed()) /
                            static_cast<double>(*claims);
}

TEST(WorkerPoolClaimTest, CheapMapClaimsGrowPastFour) {
  // A noop UDF's work is far below a claim's ~2 us fixed cost, so each
  // worker's claims grow from one toward the default cap.
  PipelineTestEnv env(0);
  GraphBuilder b;
  auto n = b.Map("pool", b.Range("src", 20000), "noop", 4);
  uint64_t claims = 0;
  EXPECT_GT(MeanClaim(env, std::move(b.Build(n)).value(), &claims), 4.0)
      << claims << " claims for 20000 elements";
}

TEST(WorkerPoolClaimTest, ExpensiveMapClaimsOneElementAtATime) {
  // serve_mixed's rpc job: 8 elements of 200 us work at p=2. Stages at
  // 20 us/element or more stay at a claim of one, so the job spreads
  // over both workers in eight claims.
  PipelineTestEnv env(0);
  GraphBuilder b;
  auto n = b.Map("pool", b.Range("src", 8), "slow", 2);
  uint64_t claims = 0;
  EXPECT_EQ(MeanClaim(env, std::move(b.Build(n)).value(), &claims), 1.0);
  EXPECT_EQ(claims, 8u);
}

INSTANTIATE_TEST_SUITE_P(
    GovernedOps, WorkerPoolTest,
    ::testing::Values(GovernedOp{"map", true, &MapGraph},
                      GovernedOp{"interleave", false, &InterleaveGraph}),
    [](const ::testing::TestParamInfo<GovernedOp>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace plumber
