// Plumber's operational model of a traced pipeline (paper §4.4, App. A).
//
// Joins a TraceSnapshot with the UDF registry to derive, per Dataset:
//   - visit ratio Vi (completions per root minibatch),
//   - resource-accounted CPU rate Ri (minibatches/sec/core),
//   - disk cost (bytes per minibatch) for sources,
//   - materialization cost (cardinality ni x bytes/element bi),
//   - cacheability (random-UDF transitive closure + finiteness).
// These feed the LP planner, the cache planner, and the bottleneck
// ranking used by the step tuner.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/core/tracer.h"
#include "src/lp/maximin_allocator.h"
#include "src/pipeline/udf.h"

namespace plumber {

// Sentinel cardinalities of NodeModel::cardinality.
inline constexpr double kModelInfinite = -1.0;
inline constexpr double kModelUnknown = -2.0;

struct NodeModel {
  std::string name;
  std::string op;
  std::string udf_name;
  std::vector<std::string> inputs;

  uint64_t completions = 0;      // Ci in the trace window
  double cpu_seconds = 0;        // attributed thread-CPU time
  double service_seconds = 0;    // cpu_seconds / Ci (per element)
  double visit_ratio = 0;        // Vi
  double local_ratio = 0;        // ri = Ci / C_consumer
  double rate_per_core = 0;      // Ri, minibatches/sec/core
  double observed_cores = 0;     // cpu_seconds / wall_seconds
  double bytes_per_element = 0;  // bi
  double cardinality = kModelUnknown;     // ni (negative sentinels above)
  double materialized_bytes = -1;         // ni * bi; -1 if unknown/infinite
  double disk_bytes_per_minibatch = 0;    // sources only
  double network_bytes_per_minibatch = 0; // remote_read sources only
  uint64_t bytes_read = 0;
  uint64_t network_bytes = 0;

  int parallelism = 1;
  bool parallelizable = false;  // has a tunable parallelism knob
  bool is_source = false;
  bool negligible_cost = false;  // too little CPU to constrain the LP
  bool random_tainted = false;   // at/after a transitively random UDF
  bool below_cache = false;      // upstream of an existing cache node
  bool cacheable = false;
};

class PipelineModel {
 public:
  // Builds the model; fails if the trace's graph is invalid.
  static StatusOr<PipelineModel> Build(const TraceSnapshot& trace,
                                       const UdfRegistry* udfs);

  // Nodes ordered root-first (consumers before producers).
  const std::vector<NodeModel>& nodes() const { return nodes_; }
  const NodeModel* Find(const std::string& name) const;

  double observed_rate() const { return trace_.observed_rate; }
  double wall_seconds() const { return trace_.wall_seconds; }
  const MachineSpec& machine() const { return trace_.machine; }
  const TraceSnapshot& trace() const { return trace_; }

  // Parallelizable, non-free nodes ranked by ascending current
  // aggregate capacity Ri * parallelism: index 0 is the bottleneck the
  // step tuner should parallelize next (paper §5.1).
  std::vector<std::string> RankBottlenecks() const;

  // CPU LP stages (paper §4.3); excludes negligible-cost and
  // below-cache nodes. Order matches nodes().
  std::vector<MaxMinStage> LpStages() const;

  // Aggregate disk demand: bytes per minibatch across sources.
  double DiskBytesPerMinibatch() const;

  // Aggregate network demand: bytes per minibatch crossing the wire
  // (remote_read sources). Feeds the LP's network rate cap exactly as
  // DiskBytesPerMinibatch feeds the disk cap.
  double NetworkBytesPerMinibatch() const;

  // Dataset-size estimate for a source prefix via subsampled file
  // sizes rescaled by m/n (App. A).
  struct SourceSizeEstimate {
    double estimated_bytes = 0;
    uint64_t files_seen = 0;
    uint64_t files_total = 0;
  };
  std::map<std::string, SourceSizeEstimate> EstimateSourceSizes() const;

 private:
  TraceSnapshot trace_;
  std::vector<NodeModel> nodes_;
  std::map<std::string, size_t> index_;
};

}  // namespace plumber
