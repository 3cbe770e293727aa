// Synthetic dataset generation.
//
// Registers TFRecord-style files in a SimFilesystem with record-size
// distributions scaled down from the paper's datasets (ImageNet, COCO,
// WMT). All byte quantities in the repository share kByteScale and all
// cardinalities share kCountScale, so every ratio the analysis depends
// on (decode amplification, cache-fit decisions, I/O cost per
// minibatch) matches the full-size system while keeping experiment
// wall time tractable.
#pragma once

#include <cstdint>
#include <string>

#include "src/io/sim_filesystem.h"

namespace plumber {

// Record payload sizes are ~1/100 of the real datasets and element
// counts ~1/160; memory budgets in MachineSpec::Setup*(byte_scale) must
// use kMemoryScale = kByteScale * kCountScale.
inline constexpr double kByteScale = 0.01;
inline constexpr double kCountScale = 1.0 / 160.0;
inline constexpr double kMemoryScale = kByteScale * kCountScale;

struct RecordDatasetSpec {
  std::string prefix;       // file names: <prefix>00000, <prefix>00001, ...
  int num_files = 8;
  int records_per_file = 100;
  double mean_record_bytes = 1024;
  // Relative standard deviation of record sizes (normal, clamped > 16).
  double rel_stddev = 0.15;
  uint64_t seed = 1;
};

// Registers the files; fails if any already exist.
Status GenerateRecordDataset(SimFilesystem* fs, const RecordDatasetSpec& spec);

// Ground-truth total on-disk bytes for a registered prefix.
uint64_t DatasetBytes(const SimFilesystem& fs, const std::string& prefix);

// Registers the standard evaluation datasets (paper App. D, scaled):
//   imagenet/train-   64 files x 120 records x ~1.1KB   (~148GB full)
//   imagenet/valid-    8 files x  60 records x ~1.1KB   (validation set)
//   coco/train-       16 files x  80 records x ~2.6KB   (~20GB full)
//   wmt17/train-       8 files x 300 records x ~45B     (~1.2GB full)
//   wmt16/train-       8 files x 400 records x ~55B     (~1.9GB full)
Status RegisterStandardDatasets(SimFilesystem* fs, uint64_t seed = 2022);

}  // namespace plumber
