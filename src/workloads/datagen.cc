#include "src/workloads/datagen.h"

#include <algorithm>
#include <cstdio>

#include "src/util/rng.h"

namespace plumber {

Status GenerateRecordDataset(SimFilesystem* fs,
                             const RecordDatasetSpec& spec) {
  if (spec.num_files <= 0 || spec.records_per_file <= 0) {
    return InvalidArgumentError("dataset must have files and records");
  }
  Rng rng(SplitMix64(spec.seed));
  for (int f = 0; f < spec.num_files; ++f) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%05d", f);
    std::vector<uint64_t> sizes;
    sizes.reserve(spec.records_per_file);
    for (int r = 0; r < spec.records_per_file; ++r) {
      const double s = rng.Normal(spec.mean_record_bytes,
                                  spec.rel_stddev * spec.mean_record_bytes);
      sizes.push_back(static_cast<uint64_t>(std::max(16.0, s)));
    }
    RETURN_IF_ERROR(fs->CreateRecordFile(
        spec.prefix + suffix, SplitMix64(spec.seed ^ (f + 1)),
        std::move(sizes)));
  }
  return OkStatus();
}

uint64_t DatasetBytes(const SimFilesystem& fs, const std::string& prefix) {
  uint64_t total = 0;
  for (const auto& name : fs.List(prefix)) {
    const SimFileMeta* meta = fs.FindMeta(name);
    if (meta != nullptr) total += meta->TotalBytes();
  }
  return total;
}

Status RegisterStandardDatasets(SimFilesystem* fs, uint64_t seed) {
  RecordDatasetSpec imagenet;
  imagenet.prefix = "imagenet/train-";
  imagenet.num_files = 64;
  imagenet.records_per_file = 120;
  imagenet.mean_record_bytes = 1100;  // ~110KB * kByteScale
  imagenet.seed = seed ^ 0x11;
  RETURN_IF_ERROR(GenerateRecordDataset(fs, imagenet));

  RecordDatasetSpec imagenet_valid;
  imagenet_valid.prefix = "imagenet/valid-";
  imagenet_valid.num_files = 8;
  imagenet_valid.records_per_file = 60;
  imagenet_valid.mean_record_bytes = 1100;
  imagenet_valid.seed = seed ^ 0x12;
  RETURN_IF_ERROR(GenerateRecordDataset(fs, imagenet_valid));

  // 16 x 80 x 1000B = 1.28MB ~ the paper's 20GB COCO * kMemoryScale.
  // Keeping COCO on the same scale as RAM matters: decoded COCO (6x)
  // must fit in Setup C's scaled 300GB so MultiBoxSSD can cache after
  // filtering, as in §5.4.
  RecordDatasetSpec coco;
  coco.prefix = "coco/train-";
  coco.num_files = 16;
  coco.records_per_file = 80;
  coco.mean_record_bytes = 1000;
  coco.seed = seed ^ 0x13;
  RETURN_IF_ERROR(GenerateRecordDataset(fs, coco));

  RecordDatasetSpec wmt17;
  wmt17.prefix = "wmt17/train-";
  wmt17.num_files = 8;
  wmt17.records_per_file = 300;
  wmt17.mean_record_bytes = 45;
  wmt17.rel_stddev = 0.4;
  wmt17.seed = seed ^ 0x14;
  RETURN_IF_ERROR(GenerateRecordDataset(fs, wmt17));

  RecordDatasetSpec wmt16;
  wmt16.prefix = "wmt16/train-";
  wmt16.num_files = 8;
  wmt16.records_per_file = 400;
  wmt16.mean_record_bytes = 55;
  wmt16.rel_stddev = 0.4;
  wmt16.seed = seed ^ 0x15;
  return GenerateRecordDataset(fs, wmt16);
}

}  // namespace plumber
