#include "src/pipeline/udf.h"

#include <gtest/gtest.h>

namespace plumber {
namespace {

UdfSpec Spec(const std::string& name, bool random = false,
             std::vector<std::string> calls = {}) {
  UdfSpec s;
  s.name = name;
  s.accesses_random_seed = random;
  s.calls = std::move(calls);
  return s;
}

TEST(UdfRegistryTest, RegisterAndFind) {
  UdfRegistry reg;
  ASSERT_TRUE(reg.Register(Spec("a")).ok());
  EXPECT_NE(reg.Find("a"), nullptr);
  EXPECT_EQ(reg.Find("b"), nullptr);
  EXPECT_EQ(reg.Register(Spec("a")).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(reg.Register(UdfSpec{}).ok());  // empty name
}

TEST(UdfRegistryTest, DirectRandomness) {
  UdfRegistry reg;
  ASSERT_TRUE(reg.Register(Spec("pure")).ok());
  ASSERT_TRUE(reg.Register(Spec("rand", true)).ok());
  EXPECT_FALSE(reg.IsTransitivelyRandom("pure"));
  EXPECT_TRUE(reg.IsTransitivelyRandom("rand"));
}

TEST(UdfRegistryTest, TransitiveRandomnessThroughChain) {
  // f -> g -> h(random): f is transitively random (paper §B.1).
  UdfRegistry reg;
  ASSERT_TRUE(reg.Register(Spec("h", true)).ok());
  ASSERT_TRUE(reg.Register(Spec("g", false, {"h"})).ok());
  ASSERT_TRUE(reg.Register(Spec("f", false, {"g"})).ok());
  EXPECT_TRUE(reg.IsTransitivelyRandom("f"));
  EXPECT_TRUE(reg.IsTransitivelyRandom("g"));
}

TEST(UdfRegistryTest, ClosureHandlesCycles) {
  UdfRegistry reg;
  ASSERT_TRUE(reg.Register(Spec("a", false, {"b"})).ok());
  ASSERT_TRUE(reg.Register(Spec("b", false, {"a"})).ok());
  EXPECT_FALSE(reg.IsTransitivelyRandom("a"));  // must terminate
}

TEST(UdfRegistryTest, UnknownCalleesIgnored) {
  UdfRegistry reg;
  ASSERT_TRUE(reg.Register(Spec("f", false, {"ghost"})).ok());
  EXPECT_FALSE(reg.IsTransitivelyRandom("f"));
}

TEST(ExecuteMapUdfTest, SizeRatioApplied) {
  UdfSpec spec = Spec("resize");
  spec.size_ratio = 3.0;
  Element in = Element::FromBuffer(Buffer(100, 1), 5);
  const Element out = ExecuteMapUdf(spec, Element(in), 1.0, 9);
  EXPECT_EQ(out.TotalBytes(), 300u);
  EXPECT_EQ(out.sequence, 5u);
}

TEST(ExecuteMapUdfTest, DeterministicForSameSeed) {
  UdfSpec spec = Spec("t");
  spec.size_ratio = 2.0;
  Element in = Element::FromBuffer(Buffer(50, 7));
  const Element a = ExecuteMapUdf(spec, Element(in), 1.0, 3);
  const Element b = ExecuteMapUdf(spec, Element(in), 1.0, 3);
  EXPECT_EQ(a.components, b.components);
}

TEST(ExecuteMapUdfTest, MultiComponentInputConcatenated) {
  UdfSpec spec = Spec("t");
  Element in;
  in.components.push_back(Buffer(30, 1));
  in.components.push_back(Buffer(70, 2));
  const Element out = ExecuteMapUdf(spec, Element(in), 1.0, 3);
  EXPECT_EQ(out.components.size(), 1u);
  EXPECT_EQ(out.TotalBytes(), 100u);
}

TEST(ExecuteMapUdfTest, InternalParallelismPreservesOutputSize) {
  UdfSpec spec = Spec("heavy");
  spec.cost_ns_per_element = 100000;
  spec.internal_parallelism = 3;
  spec.size_ratio = 1.5;
  Element in = Element::FromBuffer(Buffer(100, 1));
  EXPECT_EQ(ExecuteMapUdf(spec, Element(in), 1.0, 3).TotalBytes(), 150u);
}

TEST(ExecuteFilterUdfTest, KeepAllAndKeepNone) {
  UdfSpec keep_all = Spec("ka");
  keep_all.keep_fraction = 1.0;
  UdfSpec keep_none = Spec("kn");
  keep_none.keep_fraction = 0.0;
  Element in = Element::FromBuffer(Buffer(10, 1), 0);
  EXPECT_TRUE(ExecuteFilterUdf(keep_all, in, 1.0, 1));
  EXPECT_FALSE(ExecuteFilterUdf(keep_none, in, 1.0, 1));
}

TEST(ExecuteFilterUdfTest, KeepFractionStatistics) {
  UdfSpec spec = Spec("half");
  spec.keep_fraction = 0.5;
  int kept = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    Element e = Element::FromBuffer(Buffer(1, 0), i);
    kept += ExecuteFilterUdf(spec, e, 1.0, 77);
  }
  EXPECT_NEAR(kept / static_cast<double>(n), 0.5, 0.03);
}

TEST(ExecuteFilterUdfTest, DecisionDeterministicPerSequence) {
  UdfSpec spec = Spec("half");
  spec.keep_fraction = 0.5;
  Element e = Element::FromBuffer(Buffer(1, 0), 1234);
  const bool first = ExecuteFilterUdf(spec, e, 1.0, 9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ExecuteFilterUdf(spec, e, 1.0, 9), first);
  }
}

}  // namespace
}  // namespace plumber
