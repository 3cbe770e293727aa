// Tests for the zip and concatenate operators.
#include <gtest/gtest.h>

#include "src/pipeline/graph_builder.h"
#include "src/pipeline/pipeline.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::PipelineTestEnv;

// ------------------------------------------------------------------ zip

TEST(ZipTest, PairsElementsFromBothInputs) {
  PipelineTestEnv env(2, 10, 32);
  GraphBuilder b;
  auto images = b.Interleave("images", b.FileList("ifiles", "data/"), 2, 1);
  auto labels = b.Range("labels", 1000);
  auto n = b.Zip("zip", {images, labels});
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  const auto elements = Drain(*pipeline);
  // Ends with the shorter input: 2 files x 10 records.
  ASSERT_EQ(elements.size(), 20u);
  for (const auto& e : elements) {
    EXPECT_EQ(e.components.size(), 2u);  // (image, label) tuple
  }
}

TEST(ZipTest, EndsAtShortestInput) {
  PipelineTestEnv env(2, 10, 32);
  GraphBuilder b;
  auto a = b.Range("a", 5);
  auto c = b.Range("c", 50);
  auto n = b.Zip("zip", {a, c});
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  EXPECT_EQ(Drain(*pipeline).size(), 5u);
}

TEST(ZipTest, ThreeWayZip) {
  PipelineTestEnv env(2, 10, 32);
  GraphBuilder b;
  auto n = b.Zip("zip", {b.Range("a", 7), b.Range("c", 9), b.Range("d", 8)});
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  const auto elements = Drain(*pipeline);
  ASSERT_EQ(elements.size(), 7u);
  EXPECT_EQ(elements[0].components.size(), 3u);
}

TEST(ZipTest, SingleInputRejected) {
  PipelineTestEnv env(2, 10, 32);
  GraphBuilder b;
  auto n = b.Zip("zip", {b.Range("a", 5)});
  auto pipeline = Pipeline::Create(std::move(b.Build(n)).value(),
                                   env.Options());
  EXPECT_FALSE(pipeline.ok());
}

// ---------------------------------------------------------- concatenate

TEST(ConcatenateTest, DrainsInputsInOrder) {
  PipelineTestEnv env(2, 10, 32);
  GraphBuilder b;
  auto n = b.Concatenate("concat", {b.Range("a", 4), b.Range("c", 6)});
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  EXPECT_EQ(Drain(*pipeline).size(), 10u);
}

TEST(ConcatenateTest, WorksWithRecordSources) {
  PipelineTestEnv env(3, 10, 32);
  GraphBuilder b;
  auto first = b.Interleave("first", b.FileList("f1", "data/f0"), 1, 1);
  auto second = b.Interleave("second", b.FileList("f2", "data/f1"), 1, 1);
  auto n = b.Concatenate("concat", {first, second});
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  EXPECT_EQ(Drain(*pipeline).size(), 20u);
}

TEST(ConcatenateTest, EmptyFirstInputSkipsToSecond) {
  PipelineTestEnv env(2, 10, 32);
  GraphBuilder b;
  auto n = b.Concatenate("concat", {b.Range("a", 0), b.Range("c", 3)});
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             env.Options()))
                      .value();
  EXPECT_EQ(Drain(*pipeline).size(), 3u);
}

}  // namespace
}  // namespace plumber
