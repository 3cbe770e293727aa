#include "src/pipeline/pipeline.h"

#include "src/pipeline/ops.h"

namespace plumber {

Pipeline::Pipeline(GraphDef graph, const PipelineOptions& options)
    : graph_(std::move(graph)), ctx_(options) {
  ctx_.stats = &stats_;
  // Disk-tier scratch: only model the device when the tier is enabled
  // (a capacity and a bandwidth); disk caches degrade to unmetered
  // otherwise.
  if (options.scratch_budget_bytes > 0 && options.scratch.max_bandwidth > 0) {
    scratch_device_ = std::make_unique<StorageDevice>(options.scratch);
    ctx_.scratch_device = scratch_device_.get();
  }
  // Per-shard source disks, cloned from the filesystem's attached
  // device: a shard-split source reads each partition at the full
  // modeled device bandwidth (that is what sharding across disks buys).
  if (ctx_.fs != nullptr && ctx_.fs->device() != nullptr) {
    shard_devices_ =
        std::make_unique<ShardDevicePool>(ctx_.fs->device()->spec());
    ctx_.shard_devices = shard_devices_.get();
  }
}

StatusOr<std::unique_ptr<Pipeline>> Pipeline::Create(
    GraphDef graph, const PipelineOptions& options) {
  RETURN_IF_ERROR(graph.Validate());
  std::unique_ptr<Pipeline> pipeline(
      new Pipeline(std::move(graph), options));
  ASSIGN_OR_RETURN(pipeline->root_,
                   InstantiateGraph(pipeline->graph_, &pipeline->ctx_));
  return pipeline;
}

StatusOr<std::unique_ptr<IteratorBase>> Pipeline::MakeIterator() {
  return root_->MakeIterator(&ctx_);
}

namespace {

void SimulateSteadyStateRecursive(DatasetBase* dataset) {
  dataset->SimulateSteadyState();
  for (const auto& input : dataset->inputs()) {
    SimulateSteadyStateRecursive(input.get());
  }
}

}  // namespace

void Pipeline::SimulateSteadyState() {
  SimulateSteadyStateRecursive(root_.get());
}

}  // namespace plumber
