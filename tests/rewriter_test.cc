#include "src/core/rewriter.h"

#include <gtest/gtest.h>

#include "src/pipeline/graph_builder.h"
#include "src/pipeline/ops.h"

namespace plumber {
namespace {

GraphDef TestGraph() {
  GraphBuilder b;
  auto n = b.Interleave("interleave", b.FileList("files", "data/"), 4, 2);
  n = b.Map("decode", n, "decode", /*parallelism=*/3);
  n = b.SequentialMap("pack", n, "pack");
  n = b.Batch("batch", n, 8);
  return std::move(b.Build(n)).value();
}

TEST(RewriterTest, GetSetParallelism) {
  GraphDef g = TestGraph();
  EXPECT_EQ(*rewriter::GetParallelism(g, "decode"), 3);
  EXPECT_EQ(*rewriter::GetParallelism(g, "interleave"), 2);
  ASSERT_TRUE(rewriter::SetParallelism(&g, "decode", 9).ok());
  EXPECT_EQ(*rewriter::GetParallelism(g, "decode"), 9);
}

TEST(RewriterTest, ParallelismRejectsBadInputs) {
  GraphDef g = TestGraph();
  EXPECT_FALSE(rewriter::SetParallelism(&g, "decode", 0).ok());
  EXPECT_FALSE(rewriter::SetParallelism(&g, "ghost", 2).ok());
  // batch has no knob; pack is explicitly non-tunable.
  EXPECT_FALSE(rewriter::SetParallelism(&g, "batch", 2).ok());
  EXPECT_FALSE(rewriter::SetParallelism(&g, "pack", 2).ok());
  EXPECT_FALSE(rewriter::GetParallelism(g, "batch").ok());
}

TEST(RewriterTest, TunableNodesExcludesSequentialStages) {
  const GraphDef g = TestGraph();
  const auto tunables = rewriter::TunableNodes(g);
  EXPECT_EQ(tunables.size(), 2u);
  EXPECT_NE(std::find(tunables.begin(), tunables.end(), "interleave"),
            tunables.end());
  EXPECT_NE(std::find(tunables.begin(), tunables.end(), "decode"),
            tunables.end());
}

TEST(RewriterTest, SetAllParallelism) {
  GraphDef g = TestGraph();
  ASSERT_TRUE(rewriter::SetAllParallelism(&g, 16).ok());
  EXPECT_EQ(*rewriter::GetParallelism(g, "decode"), 16);
  EXPECT_EQ(*rewriter::GetParallelism(g, "interleave"), 16);
  // Non-tunable stage untouched.
  EXPECT_EQ(g.FindNode("pack")->GetInt(kAttrParallelism, 1), 1);
}

TEST(RewriterTest, InjectPrefetchAfterNode) {
  GraphDef g = TestGraph();
  auto name = rewriter::InjectPrefetch(&g, "decode", 6);
  ASSERT_TRUE(name.ok());
  const NodeDef* p = g.FindNode(*name);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->op, "prefetch");
  EXPECT_EQ(p->GetInt(kAttrBufferSize), 6);
  EXPECT_EQ(p->inputs, std::vector<std::string>{"decode"});
  EXPECT_EQ(g.FindNode("pack")->inputs, std::vector<std::string>{*name});
  EXPECT_TRUE(g.Validate().ok());
}

TEST(RewriterTest, InjectCacheAfterNode) {
  GraphDef g = TestGraph();
  auto name = rewriter::InjectCache(&g, "decode");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(g.FindNode(*name)->op, "cache");
  EXPECT_TRUE(rewriter::HasOp(g, "cache"));
  EXPECT_TRUE(g.Validate().ok());
}

TEST(RewriterTest, EnsureRootPrefetchInjects) {
  GraphDef g = TestGraph();
  ASSERT_TRUE(rewriter::EnsureRootPrefetch(&g, 5).ok());
  const NodeDef* root = g.FindNode(g.output());
  EXPECT_EQ(root->op, "prefetch");
  EXPECT_EQ(root->GetInt(kAttrBufferSize), 5);
}

TEST(RewriterTest, EnsureRootPrefetchUpdatesExisting) {
  GraphDef g = TestGraph();
  ASSERT_TRUE(rewriter::EnsureRootPrefetch(&g, 5).ok());
  const std::string first_root = g.output();
  ASSERT_TRUE(rewriter::EnsureRootPrefetch(&g, 9).ok());
  EXPECT_EQ(g.output(), first_root);  // no second prefetch stacked
  EXPECT_EQ(g.FindNode(g.output())->GetInt(kAttrBufferSize), 9);
}

TEST(RewriterTest, BufferSizeAccessors) {
  GraphDef g = TestGraph();
  ASSERT_TRUE(rewriter::EnsureRootPrefetch(&g, 3).ok());
  const std::string root = g.output();
  EXPECT_EQ(g.FindNode(root)->GetInt(kAttrBufferSize), 3);
  ASSERT_TRUE(rewriter::SetBufferSize(&g, root, 12).ok());
  EXPECT_EQ(g.FindNode(root)->GetInt(kAttrBufferSize), 12);
  EXPECT_FALSE(rewriter::SetBufferSize(&g, root, 0).ok());
}

TEST(RewriterTest, ApplyParallelismPlanSkipsUnknownNodes) {
  GraphDef g = TestGraph();
  LpPlan plan;
  plan.parallelism["decode"] = 7;
  plan.parallelism["ghost"] = 3;   // silently skipped
  plan.parallelism["batch"] = 2;   // no knob: skipped
  ASSERT_TRUE(rewriter::ApplyParallelismPlan(&g, plan).ok());
  EXPECT_EQ(*rewriter::GetParallelism(g, "decode"), 7);
}

}  // namespace
}  // namespace plumber
