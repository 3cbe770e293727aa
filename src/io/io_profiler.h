// fio-equivalent I/O profiler.
//
// Measures achievable read bandwidth of a SimFilesystem-backed training
// directory at several parallelism levels and fits the piecewise-linear
// parallelism->bandwidth curve the LP consumes (paper §4.3/§4.4: "which
// Plumber measures by profiling the training directory using fio").
#pragma once

#include <string>
#include <vector>

#include "src/io/piecewise_linear.h"
#include "src/io/sim_filesystem.h"

namespace plumber {

struct IoProfileOptions {
  // Parallelism levels to probe. Empty = {1, 2, 4, 8, 16}.
  std::vector<int> parallelism_levels;
  // Wall-clock budget per probe.
  double seconds_per_probe = 0.05;
};

struct IoProfileResult {
  PiecewiseLinear parallelism_to_bandwidth;  // bytes/sec
  double max_bandwidth = 0;                  // bytes/sec
  double min_parallelism_for_max = 1;        // knee of the curve
};

// Probes read bandwidth over the files under `prefix`. The filesystem's
// device limits apply, so the result reflects per-stream caps.
IoProfileResult ProfileReadBandwidth(SimFilesystem* fs,
                                     const std::string& prefix,
                                     const IoProfileOptions& options = {});

// Single-parallelism probe in 64 KiB reads; returns bytes/sec.
double MeasureBandwidth(SimFilesystem* fs, const std::string& prefix,
                        int parallelism, double seconds);

}  // namespace plumber
