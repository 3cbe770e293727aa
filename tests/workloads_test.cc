#include "src/workloads/workloads.h"

#include <gtest/gtest.h>

#include "src/pipeline/runner.h"
#include "src/workloads/datagen.h"

namespace plumber {
namespace {

// Ground-truth record count for a registered prefix.
uint64_t RecordsUnder(const SimFilesystem& fs, const std::string& prefix) {
  uint64_t total = 0;
  for (const auto& name : fs.List(prefix)) {
    total += fs.FindMeta(name)->NumRecords();
  }
  return total;
}

TEST(DatagenTest, GeneratesRequestedShape) {
  SimFilesystem fs;
  RecordDatasetSpec spec;
  spec.prefix = "t/";
  spec.num_files = 5;
  spec.records_per_file = 10;
  spec.mean_record_bytes = 100;
  ASSERT_TRUE(GenerateRecordDataset(&fs, spec).ok());
  EXPECT_EQ(fs.List("t/").size(), 5u);
  EXPECT_EQ(RecordsUnder(fs, "t/"), 50u);
  const double bytes = DatasetBytes(fs, "t/");
  // ~50 x (100 +/- 15%) payload + framing.
  EXPECT_NEAR(bytes, 50 * (100 + kRecordFramingBytes), 0.3 * bytes);
}

TEST(DatagenTest, RejectsEmptySpec) {
  SimFilesystem fs;
  RecordDatasetSpec spec;
  spec.num_files = 0;
  EXPECT_FALSE(GenerateRecordDataset(&fs, spec).ok());
}

TEST(DatagenTest, StandardDatasetsSizesScale) {
  SimFilesystem fs;
  ASSERT_TRUE(RegisterStandardDatasets(&fs).ok());
  // ImageNet scaled: 64 files x 120 x ~1.1KB ~= 8.4MB; the COCO set is
  // smaller but with bigger records; text sets are tiny.
  const double imagenet = DatasetBytes(fs, "imagenet/train-");
  const double coco = DatasetBytes(fs, "coco/train-");
  const double wmt17 = DatasetBytes(fs, "wmt17/train-");
  EXPECT_NEAR(imagenet, 8.4e6, 1.5e6);
  EXPECT_GT(imagenet, coco);
  EXPECT_GT(coco, wmt17);
  EXPECT_EQ(RecordsUnder(fs, "imagenet/train-"), 64u * 120u);
}

TEST(WorkloadsTest, AllNamesBuild) {
  for (const auto& name : AllWorkloadNames()) {
    auto w = MakeWorkload(name);
    ASSERT_TRUE(w.ok()) << name;
    EXPECT_EQ(w->name, name);
    EXPECT_TRUE(w->graph.Validate().ok()) << name;
    EXPECT_FALSE(w->variants.empty());
    EXPECT_GT(w->batch_size, 0);
  }
  EXPECT_FALSE(MakeWorkload("nope").ok());
}

TEST(WorkloadsTest, UdfRegistrationIdempotent) {
  UdfRegistry udfs;
  ASSERT_TRUE(RegisterWorkloadUdfs(&udfs).ok());
  ASSERT_TRUE(RegisterWorkloadUdfs(&udfs).ok());
  EXPECT_NE(udfs.Find("decode"), nullptr);
  EXPECT_NE(udfs.Find("rcnn_heavy"), nullptr);
}

TEST(WorkloadsTest, RandomnessClosureMatchesPaperStructure) {
  UdfRegistry udfs;
  ASSERT_TRUE(RegisterWorkloadUdfs(&udfs).ok());
  // The fused decode+crop calls the random crop: transitively random.
  EXPECT_TRUE(udfs.IsTransitivelyRandom("fused_decode_crop"));
  EXPECT_FALSE(udfs.IsTransitivelyRandom("decode"));
  EXPECT_TRUE(udfs.IsTransitivelyRandom("rcnn_heavy"));
  EXPECT_FALSE(udfs.IsTransitivelyRandom("flax_pack"));
}

class WorkloadRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadRunTest, ProducesBatchesEndToEnd) {
  Session session = MakeWorkloadSession(MachineSpec::SetupA());
  auto w = std::move(MakeWorkload(GetParam())).value();
  auto pipeline =
      std::move(Pipeline::Create(w.graph, session.MakePipelineOptions()))
          .value();
  RunOptions options;
  options.max_batches = 3;
  options.max_seconds = 20;
  const RunResult result = RunPipeline(*pipeline, options);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.batches, 3);
  EXPECT_EQ(result.elements, 3 * w.batch_size);
  pipeline->Cancel();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadRunTest,
    ::testing::Values("resnet18", "resnet_linear", "rcnn", "multibox_ssd",
                      "transformer", "transformer_small", "gnmt"));

TEST(WorkloadsTest, ResNetVariantsShareSignature) {
  Session session = MakeWorkloadSession(MachineSpec::SetupA());
  auto w = std::move(MakeWorkload("resnet18")).value();
  ASSERT_EQ(w.variants.size(), 2u);
  for (const auto& variant : w.variants) {
    auto pipeline =
        std::move(Pipeline::Create(variant, session.MakePipelineOptions()))
            .value();
    RunOptions options;
    options.max_batches = 1;
    options.max_seconds = 20;
    const RunResult result = RunPipeline(*pipeline, options);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.elements, w.batch_size);
    pipeline->Cancel();
  }
}

TEST(WorkloadsTest, ModelStepSecondsFromCap) {
  auto w = std::move(MakeWorkload("resnet18")).value();
  ASSERT_GT(w.model_cap_examples_per_sec, 0);
  EXPECT_NEAR(w.ModelStepSeconds(),
              w.batch_size / w.model_cap_examples_per_sec, 1e-12);
}

}  // namespace
}  // namespace plumber
