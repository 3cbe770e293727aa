// Grouping and buffering operators: batch, prefetch, cache.
#include <vector>

#include "src/pipeline/ops.h"
#include "src/pipeline/worker_pool.h"

namespace plumber {
namespace {

// ----------------------------------------------------------------- batch
class BatchDataset : public DatasetBase {
 public:
  BatchDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class BatchIterator : public IteratorBase {
 public:
  BatchIterator(PipelineContext* ctx, IteratorStats* stats,
                std::unique_ptr<IteratorBase> input, int64_t batch_size,
                bool drop_remainder)
      : IteratorBase(ctx, stats), input_(std::move(input)),
        batch_size_(batch_size < 1 ? 1 : batch_size),
        drop_remainder_(drop_remainder) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    out->components.clear();
    // The whole batch in one child call: one cancellation check and CPU
    // scope per batch instead of per element.
    std::vector<Element> claimed;
    claimed.reserve(static_cast<size_t>(batch_size_));
    bool in_end = false;
    RETURN_IF_ERROR(input_->GetNextBatch(
        &claimed, static_cast<size_t>(batch_size_), &in_end));
    if (!claimed.empty()) stats_->RecordConsumedBatch(claimed.size());
    const int64_t gathered = static_cast<int64_t>(claimed.size());
    if (gathered == 0 || (drop_remainder_ && gathered < batch_size_)) {
      *end = true;
      return OkStatus();
    }
    out->sequence = claimed.front().sequence;
    for (Element& in : claimed) {
      for (auto& c : in.components) out->components.push_back(std::move(c));
    }
    *end = false;
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const int64_t batch_size_;
  const bool drop_remainder_;
};

StatusOr<std::unique_ptr<IteratorBase>> BatchDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  return std::unique_ptr<IteratorBase>(new BatchIterator(
      ctx, StatsFor(ctx), std::move(input), def_.GetInt(kAttrBatchSize, 1),
      def_.GetBool(kAttrDropRemainder, true)));
}

// --------------------------------------------------------------- prefetch
// A background fill worker keeps a bounded buffer of upstream elements
// so upstream production overlaps downstream consumption.
class PrefetchDataset : public DatasetBase {
 public:
  PrefetchDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class PrefetchIterator : public IteratorBase {
 public:
  PrefetchIterator(PipelineContext* ctx, IteratorStats* stats,
                   std::unique_ptr<IteratorBase> input, size_t buffer_size)
      : IteratorBase(ctx, stats), input_(std::move(input)),
        // One fill worker, never governed: the structurally 1:1 edge
        // (the lock-free SPSC ring), buffer_size deep, which also caps
        // the fill worker's claims. A claim above one widens the
        // look-ahead bound: besides the buffer_size elements in the
        // channel, up to one claim sits in the fill worker and one
        // drained claim in the consumer — at most ~3x buffer_size
        // elements materialized ahead, vs buffer_size + 1 at a claim of
        // one.
        pool_(ctx, stats, PoolSpec{1, /*governed=*/false, buffer_size},
              [this](WorkerPool::Worker& worker) {
                return pool_.ForwardBatch(worker, input_.get());
              }) {
    // For a prefetch node the parallelism stat reports its depth.
    stats_->SetParallelism(static_cast<int>(buffer_size));
  }

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    const Status status = pool_.Next(out, end);
    stats_->RecordQueueEmptyFraction(pool_.EmptyPopFraction());
    return status;
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  // Declared after the input its claims drain (joined first).
  WorkerPool pool_;
};

StatusOr<std::unique_ptr<IteratorBase>> PrefetchDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  return std::unique_ptr<IteratorBase>(new PrefetchIterator(
      ctx, StatsFor(ctx), std::move(input),
      static_cast<size_t>(def_.GetInt(kAttrBufferSize, 2))));
}

// ------------------------------------------------------------------ cache
// Materialization, in memory or on the scratch disk tier. The cache
// lives on the Dataset (not the iterator) so it persists across
// epochs: the first complete pass fills it, later iterators serve from
// the materialization, eliminating all upstream work (the steady state
// Plumber's cache planner reasons about). One iterator at a time fills
// it: the first that finds it incomplete with no writer becomes the
// writer and restarts the fill, dropping any partial fill an earlier
// writer left; any other iterator that starts while it is incomplete
// reads its input uncached. A writer that goes away leaves its partial
// fill in place, so SimulateSteadyState can still freeze it after a
// warmup iterator is gone; a writer still live when its fill is frozen
// stops filling, drops its input and serves the frozen fill from the
// start, like an iterator created after the freeze. A disk-tier cache
// (kAttrCacheTier = "disk") differs in two ways: its capacity check is
// against the scratch budget rather than the DRAM budget, and every
// serve-path read is charged through the modeled scratch
// StorageDevice, so a warm disk cache delivers at SSD bandwidth — the
// economics PlanCache decides by.
class CacheDataset : public DatasetBase {
 public:
  CacheDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

  // Steady-state simulation (paper §B): treat whatever is materialized
  // so far as the whole dataset. Serving a truncated dataset preserves
  // per-element rates, which is all the tracer and PickBest compare.
  void SimulateSteadyState() override {
    std::lock_guard<std::mutex> lock(state_.mu);
    if (!state_.elements.empty()) state_.complete = true;
  }

  struct State {
    std::mutex mu;
    std::vector<Element> elements;
    uint64_t bytes = 0;
    // Written under mu; atomic so a live writer can see a freeze
    // before each pull without taking the lock.
    std::atomic<bool> complete{false};
    bool has_writer = false;
  };

  State* state() const { return &state_; }

 private:
  mutable State state_;
};

class CacheIterator : public IteratorBase {
 public:
  CacheIterator(PipelineContext* ctx, IteratorStats* stats,
                const DatasetBase* input_dataset, CacheDataset::State* state,
                bool disk_tier)
      : IteratorBase(ctx, stats), input_dataset_(input_dataset),
        state_(state), disk_tier_(disk_tier) {
    std::lock_guard<std::mutex> lock(state_->mu);
    serving_ = state_->complete;
    if (!serving_ && !state_->has_writer) {
      state_->has_writer = true;
      writing_ = true;
      state_->elements.clear();
      state_->bytes = 0;
    }
  }

  ~CacheIterator() override {
    if (!writing_) return;
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->has_writer = false;
  }

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    if (writing_ && state_->complete.load(std::memory_order_acquire)) {
      // The fill was frozen (or finished) under this writer: serve it
      // from the start instead of pulling more input.
      input_.reset();
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->has_writer = false;
      writing_ = false;
      serving_ = true;
    }
    if (serving_) {
      {
        std::lock_guard<std::mutex> lock(state_->mu);
        if (serve_index_ >= state_->elements.size()) {
          *end = true;
          return OkStatus();
        }
        // Clone is semantically required here (and at materialization
        // below): the cache keeps its elements across epochs while the
        // consumer takes ownership of what it is handed.
        *out = state_->elements[serve_index_++].Clone();
      }
      // A disk-tier serve reads the element back from scratch: meter
      // it against the modeled device outside the state lock so the
      // token-bucket wait never serializes other cache iterators.
      if (disk_tier_ && ctx_->scratch_device != nullptr) {
        if (serve_stream_ == nullptr) {
          serve_stream_ = ctx_->scratch_device->OpenStream();
        }
        serve_stream_->Charge(out->TotalBytes());
      }
      *end = false;
      return OkStatus();
    }
    if (input_ == nullptr) {
      ASSIGN_OR_RETURN(input_, input_dataset_->MakeIterator(ctx_));
    }
    Element in;
    bool in_end = false;
    RETURN_IF_ERROR(input_->GetNext(&in, &in_end));
    if (in_end) {
      input_.reset();
      if (writing_) {
        std::lock_guard<std::mutex> lock(state_->mu);
        state_->complete = true;
      }
      *end = true;
      return OkStatus();
    }
    stats_->RecordConsumed();
    if (writing_) {
      std::lock_guard<std::mutex> lock(state_->mu);
      const uint64_t bytes = in.TotalBytes();
      // Each tier materializes against its own capacity: DRAM caches
      // against the memory budget, disk caches against the scratch
      // budget (a disk cache exists precisely because DRAM is full).
      const uint64_t budget = disk_tier_ ? ctx_->scratch_budget_bytes
                                         : ctx_->memory_budget_bytes;
      if (budget > 0 && state_->bytes + bytes > budget) {
        return ResourceExhaustedError(
            std::string("cache exceeds ") +
            (disk_tier_ ? "scratch" : "memory") + " budget at node " +
            stats_->name());
      }
      state_->elements.push_back(in.Clone());
      state_->bytes += bytes;
    }
    *out = std::move(in);
    *end = false;
    return OkStatus();
  }

 private:
  const DatasetBase* input_dataset_;
  CacheDataset::State* state_;
  const bool disk_tier_;
  std::unique_ptr<IteratorBase> input_;
  std::unique_ptr<ReadStream> serve_stream_;  // disk tier, lazily opened
  bool serving_ = false;
  bool writing_ = false;  // this iterator is the cache's one writer
  size_t serve_index_ = 0;
};

StatusOr<std::unique_ptr<IteratorBase>> CacheDataset::MakeIterator(
    PipelineContext* ctx) const {
  const bool disk_tier = def_.GetString(kAttrCacheTier, "memory") == "disk";
  return std::unique_ptr<IteratorBase>(new CacheIterator(
      ctx, StatsFor(ctx), inputs_[0].get(), state(), disk_tier));
}

}  // namespace

StatusOr<DatasetPtr> MakeBatchDataset(NodeDef def,
                                      std::vector<DatasetPtr> inputs,
                                      PipelineContext*) {
  return DatasetPtr(new BatchDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakePrefetchDataset(NodeDef def,
                                         std::vector<DatasetPtr> inputs,
                                         PipelineContext*) {
  return DatasetPtr(new PrefetchDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakeCacheDataset(NodeDef def,
                                      std::vector<DatasetPtr> inputs,
                                      PipelineContext*) {
  return DatasetPtr(new CacheDataset(std::move(def), std::move(inputs)));
}

}  // namespace plumber
