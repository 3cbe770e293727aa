// Pipeline: an instantiated GraphDef plus its runtime context.
//
// Owns the stats registry and cancellation token; MakeIterator unrolls
// the Dataset tree into an Iterator tree (any number of times — epochs,
// retracing). A Pipeline corresponds to one "@optimize entry point"
// instantiation in the paper.
#pragma once

#include <memory>

#include "src/pipeline/dataset.h"

namespace plumber {

struct PipelineOptions {
  SimFilesystem* fs = nullptr;
  const UdfRegistry* udfs = nullptr;
  double cpu_scale = 1.0;
  // How modeled UDF cost executes (see CpuWorkModel in udf.h). kTimed
  // keeps measurements faithful to the modeled machine on any host;
  // kPhysical burns real cores for contention experiments.
  CpuWorkModel work_model = CpuWorkModel::kTimed;
  uint64_t seed = 42;
  bool tracing_enabled = true;
  uint64_t memory_budget_bytes = 0;
  // Cap on the claims worker pools size for themselves; see
  // PipelineContext::max_claim. Only tests and benches lower it.
  int max_claim = 64;
  // Live parallelism control for multi-tenant execution (see
  // PipelineContext::governor). Null = fixed worker counts.
  GovernorPtr governor;
  // Local scratch tier for disk-tier caches: when scratch_budget_bytes
  // > 0 and scratch.max_bandwidth > 0 the pipeline owns a
  // StorageDevice with this spec and disk-tier cache serves are
  // metered through it (see PipelineContext::scratch_device).
  DeviceSpec scratch = DeviceSpec::Unlimited();
  uint64_t scratch_budget_bytes = 0;
  // This host's NIC, borrowed like `fs` so a Session or FleetRuntime
  // can share one device (and its byte counters) across pipelines.
  // Null = local transfers are unmetered (no network model).
  StorageDevice* nic = nullptr;
};

class Pipeline {
 public:
  static StatusOr<std::unique_ptr<Pipeline>> Create(
      GraphDef graph, const PipelineOptions& options);

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator();

  const GraphDef& graph() const { return graph_; }
  StatsRegistry& stats() { return stats_; }
  const StatsRegistry& stats() const { return stats_; }
  PipelineContext* context() { return &ctx_; }

  // Requests cooperative cancellation of all iterators.
  void Cancel() { ctx_.cancelled->store(true); }

  // Applies SimulateSteadyState to every dataset in the tree (paper §B:
  // simulate warm caches by truncating the materialized data).
  void SimulateSteadyState();

 private:
  Pipeline(GraphDef graph, const PipelineOptions& options);

  GraphDef graph_;
  StatsRegistry stats_;
  // Owned modeled devices referenced by ctx_: the disk-cache scratch
  // tier and the per-shard source disks (cloned from the filesystem's
  // attached device spec). Declared before ctx_ users would need them;
  // destroyed after all iterators (callers drop iterators first).
  std::unique_ptr<StorageDevice> scratch_device_;
  std::unique_ptr<ShardDevicePool> shard_devices_;
  PipelineContext ctx_;
  DatasetPtr root_;
};

}  // namespace plumber
