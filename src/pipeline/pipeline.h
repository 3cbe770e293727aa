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
