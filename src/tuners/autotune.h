// AUTOTUNE baseline (paper §2.2).
//
// tf.data's AUTOTUNE models each Iterator as an M/M/1/k queue: each
// node's processing time is normalized by its parallelism and
// input/output ratio, combined with children "input latencies" into an
// "output latency", which hill climbing then minimizes. Two properties
// the paper criticizes — and which this implementation deliberately
// reproduces — are:
//   1. resource-obliviousness: the latency model can be driven toward
//      zero by raising parallelism, so the implied throughput estimate
//      1/latency is unbounded (Fig. 7-9 "Estimated AUTOTUNE Rate"),
//   2. over-allocation: hill climbing keeps adding parallelism while
//      the modeled latency improves, so heavy UDF pipelines (RCNN)
//      oversubscribe the CPU.
#pragma once

#include <map>
#include <string>

#include "src/core/model.h"
#include "src/pipeline/graph_def.h"

namespace plumber {

struct AutotuneOptions {
  // Per-knob parallelism cap (the real implementation caps each knob at
  // the core count — a heuristic constraint, not a resource model).
  int max_parallelism = 16;
};

struct AutotuneResult {
  GraphDef graph;  // input graph with chosen parallelism applied
  std::map<std::string, int> parallelism;
  double predicted_latency_seconds = 0;  // per minibatch
  double predicted_rate = 0;             // 1 / latency
};

// Expected per-minibatch output latency of the pipeline under the given
// parallelism assignment, from the traced model's per-element service
// times and visit ratios. Subtrees below an async boundary (prefetch /
// parallel stages) are discounted by the M/M/1/k empty probability.
double AutotuneEstimateLatency(const PipelineModel& model,
                               const std::map<std::string, int>& parallelism);

// Estimate for the model's *current* parallelism settings — the
// "Estimated AUTOTUNE Rate" series of Fig. 7-9.
double AutotuneEstimateRate(const PipelineModel& model);

// Full AUTOTUNE: hill-climb parallelism knobs against the latency model.
StatusOr<AutotuneResult> AutotuneConfiguration(
    const GraphDef& graph, const PipelineModel& traced_model,
    const AutotuneOptions& options = {});

}  // namespace plumber
