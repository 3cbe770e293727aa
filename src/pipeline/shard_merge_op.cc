// shard_merge: merges N shard sources produced by
// rewriter::ShardSource into one stream.
//
// One worker per input pulls sized claims from its shard subtree and
// pushes them into the merge channel, so N shards read
// concurrently — each against its own modeled shard disk (see
// ReaderDevice in interleave_op.cc) — and their aggregate bandwidth is
// N x one device. Merge order across shards is nondeterministic,
// exactly like parallel interleave; the element *multiset* equals the
// unsharded source's because the shards partition the file list.
#include <vector>

#include "src/pipeline/ops.h"
#include "src/pipeline/worker_pool.h"

namespace plumber {
namespace {

class ShardMergeDataset : public DatasetBase {
 public:
  ShardMergeDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

// One WorkerPool worker per shard, fixed (never governed): worker i
// owns input i exclusively, so shard pulls need no lock. The merged
// stream ends only when every shard has drained.
class ShardMergeIterator : public IteratorBase {
 public:
  ShardMergeIterator(PipelineContext* ctx, IteratorStats* stats,
                     std::vector<std::unique_ptr<IteratorBase>> inputs)
      : IteratorBase(ctx, stats), inputs_(std::move(inputs)),
        pool_(ctx, stats,
              PoolSpec{static_cast<int>(inputs_.size()), /*governed=*/false},
              [this](WorkerPool::Worker& worker) {
                return pool_.ForwardBatch(worker,
                                          inputs_[worker.index()].get());
              }) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    return pool_.Next(out, end);
  }

 private:
  std::vector<std::unique_ptr<IteratorBase>> inputs_;
  // Declared after the inputs its claims drain (joined first).
  WorkerPool pool_;
};

StatusOr<std::unique_ptr<IteratorBase>> ShardMergeDataset::MakeIterator(
    PipelineContext* ctx) const {
  std::vector<std::unique_ptr<IteratorBase>> inputs;
  inputs.reserve(inputs_.size());
  for (const auto& input : inputs_) {
    ASSIGN_OR_RETURN(auto it, input->MakeIterator(ctx));
    inputs.push_back(std::move(it));
  }
  return std::unique_ptr<IteratorBase>(
      new ShardMergeIterator(ctx, StatsFor(ctx), std::move(inputs)));
}

}  // namespace

StatusOr<DatasetPtr> MakeShardMergeDataset(NodeDef def,
                                           std::vector<DatasetPtr> inputs,
                                           PipelineContext*) {
  return DatasetPtr(new ShardMergeDataset(std::move(def), std::move(inputs)));
}

}  // namespace plumber
