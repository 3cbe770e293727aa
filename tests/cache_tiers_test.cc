// Tests for the memory/disk tiered cache dispatch of PlanCache (paper
// §4.1 "Extensions"): each cache candidate is tried against DRAM first,
// then against the scratch tier under the serve-rate guard.
#include <gtest/gtest.h>

#include "src/core/planner.h"
#include "src/core/tracer.h"
#include "src/pipeline/ops.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::PipelineTestEnv;

class CacheTiersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<PipelineTestEnv>(4, 50, 128);
    GraphBuilder b;
    auto n = b.Interleave("interleave", b.FileList("files", "data/"), 2, 2);
    n = b.Map("grow", n, "double_size");  // 2x amplification, cacheable
    n = b.Map("work", n, "slow", 2);
    n = b.ShuffleAndRepeat("sr", n, 16);
    n = b.Batch("batch", n, 5);
    GraphDef graph = std::move(b.Build(n)).value();
    auto pipeline =
        std::move(Pipeline::Create(graph, env_->Options())).value();
    TraceOptions topts;
    topts.trace_seconds = 0.35;
    topts.machine = MachineSpec::SetupA();
    const TraceSnapshot trace = CaptureTrace(*pipeline, topts);
    pipeline->Cancel();
    model_ = std::make_unique<PipelineModel>(
        std::move(PipelineModel::Build(trace, &env_->udfs)).value());
  }

  // Dataset: 4 x 50 x 128 = 25600 source bytes; "grow" doubles it.
  std::unique_ptr<PipelineTestEnv> env_;
  std::unique_ptr<PipelineModel> model_;
};

TEST_F(CacheTiersTest, PrefersMemoryWhenItFits) {
  CachePlanOptions options;
  options.memory_bytes = 10 << 20;
  options.disk_free_bytes = 10 << 20;
  options.disk_read_bandwidth = 1e9;
  const CacheDecision decision = PlanCache(*model_, options);
  ASSERT_TRUE(decision.feasible);
  EXPECT_EQ(decision.tier, CacheTier::kMemory);
  EXPECT_EQ(decision.disk_serve_rate, 0);
  // The deepest cacheable node is "work" (the slow map is deterministic
  // here), closest to the root below the infinite shuffle+repeat.
  EXPECT_EQ(decision.node, "work");
}

TEST_F(CacheTiersTest, FallsBackToDiskWhenMemoryTooSmall) {
  CachePlanOptions options;
  options.memory_bytes = 1024;  // nothing fits in memory
  options.disk_free_bytes = 10 << 20;
  options.disk_read_bandwidth = 1e9;  // fast scratch SSD
  const CacheDecision decision = PlanCache(*model_, options);
  ASSERT_TRUE(decision.feasible);
  EXPECT_EQ(decision.tier, CacheTier::kDisk);
  EXPECT_GT(decision.disk_serve_rate, 0);
}

TEST_F(CacheTiersTest, RejectsDiskTooSlowToServe) {
  CachePlanOptions options;
  options.memory_bytes = 1024;
  options.disk_free_bytes = 10 << 20;
  options.disk_read_bandwidth = 16;  // 16 B/s: slower than recompute
  const CacheDecision decision = PlanCache(*model_, options);
  EXPECT_FALSE(decision.feasible);
  EXPECT_EQ(decision.tier, CacheTier::kNone);
}

TEST_F(CacheTiersTest, RejectsDiskWithoutCapacity) {
  CachePlanOptions options;
  options.memory_bytes = 0;
  options.disk_free_bytes = 64;  // materializations don't fit
  options.disk_read_bandwidth = 1e9;
  const CacheDecision decision = PlanCache(*model_, options);
  EXPECT_FALSE(decision.feasible);
}

TEST_F(CacheTiersTest, DisabledTiersYieldNoDecision) {
  CachePlanOptions options;  // both tiers disabled
  const CacheDecision decision = PlanCache(*model_, options);
  EXPECT_FALSE(decision.feasible);
  EXPECT_EQ(std::string(CacheTierName(decision.tier)), "none");
}

TEST_F(CacheTiersTest, DiskPlacementHonorsClosestToRootRule) {
  // With a disk tier that can hold the source but not the doubled
  // "grow" output, the decision moves deeper into the pipeline.
  const NodeModel* grow = model_->Find("grow");
  const NodeModel* interleave = model_->Find("interleave");
  ASSERT_NE(grow, nullptr);
  ASSERT_NE(interleave, nullptr);
  ASSERT_GT(grow->materialized_bytes, interleave->materialized_bytes);
  CachePlanOptions options;
  options.memory_bytes = 1024;
  options.disk_free_bytes = static_cast<uint64_t>(
      (grow->materialized_bytes + interleave->materialized_bytes) / 2);
  options.disk_read_bandwidth = 1e9;
  const CacheDecision decision = PlanCache(*model_, options);
  ASSERT_TRUE(decision.feasible);
  EXPECT_EQ(decision.tier, CacheTier::kDisk);
  EXPECT_EQ(decision.node, "interleave");
}

}  // namespace
}  // namespace plumber
