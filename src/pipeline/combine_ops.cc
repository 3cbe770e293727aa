// Multi-input and fused operators: zip, concatenate, map_and_batch.
//
// zip pairs one element from each input per output (the (image, label)
// tuple construction the paper's §2.1 describes); concatenate chains
// datasets end to end; map_and_batch is the classic tf.data fusion of
// a parallel map with batching — workers each assemble a whole batch,
// amortizing per-element queue handoffs, which matters exactly for the
// tiny-element text pipelines of §5.1 ("motivating a batched execution
// engine", App. C.3).
#include <algorithm>
#include <mutex>
#include <vector>

#include "src/pipeline/ops.h"
#include "src/pipeline/worker_pool.h"
#include "src/util/rng.h"

namespace plumber {
namespace {

uint64_t NodeSeed(const PipelineContext* ctx, const NodeDef& def) {
  uint64_t h = ctx->seed;
  for (char c : def.name) h = SplitMix64(h ^ static_cast<uint8_t>(c));
  return h;
}

// ------------------------------------------------------------------ zip
class ZipDataset : public DatasetBase {
 public:
  ZipDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class ZipIterator : public IteratorBase {
 public:
  ZipIterator(PipelineContext* ctx, IteratorStats* stats,
              std::vector<std::unique_ptr<IteratorBase>> inputs)
      : IteratorBase(ctx, stats), inputs_(std::move(inputs)) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    out->components.clear();
    for (size_t i = 0; i < inputs_.size(); ++i) {
      Element in;
      bool in_end = false;
      RETURN_IF_ERROR(inputs_[i]->GetNext(&in, &in_end));
      if (in_end) {
        *end = true;
        return OkStatus();
      }
      stats_->RecordConsumed();
      if (i == 0) out->sequence = in.sequence;
      for (auto& c : in.components) out->components.push_back(std::move(c));
    }
    *end = false;
    return OkStatus();
  }

  // Batched zip: claim a vector from every input, pair them up to the
  // shortest claim. Elements past the shortest input's end are
  // unobservable downstream either way, so output matches the
  // element-at-a-time path.
  Status GetNextBatchInternal(std::vector<Element>* out, size_t max_elements,
                              bool* end) override {
    if (max_elements <= 1) {
      return IteratorBase::GetNextBatchInternal(out, max_elements, end);
    }
    std::vector<std::vector<Element>> claims(inputs_.size());
    size_t take = max_elements;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      bool in_end = false;
      RETURN_IF_ERROR(inputs_[i]->GetNextBatch(&claims[i], take, &in_end));
      take = std::min(take, claims[i].size());
    }
    if (take > 0) {
      stats_->RecordConsumedBatch(take * inputs_.size());
    }
    for (size_t row = 0; row < take; ++row) {
      Element zipped;
      zipped.sequence = claims[0][row].sequence;
      for (auto& claim : claims) {
        for (auto& c : claim[row].components) {
          zipped.components.push_back(std::move(c));
        }
      }
      out->push_back(std::move(zipped));
    }
    if (take < max_elements) *end = true;
    return OkStatus();
  }

 private:
  std::vector<std::unique_ptr<IteratorBase>> inputs_;
};

StatusOr<std::unique_ptr<IteratorBase>> ZipDataset::MakeIterator(
    PipelineContext* ctx) const {
  std::vector<std::unique_ptr<IteratorBase>> iterators;
  iterators.reserve(inputs_.size());
  for (const auto& input : inputs_) {
    ASSIGN_OR_RETURN(auto it, input->MakeIterator(ctx));
    iterators.push_back(std::move(it));
  }
  return std::unique_ptr<IteratorBase>(
      new ZipIterator(ctx, StatsFor(ctx), std::move(iterators)));
}

// ---------------------------------------------------------- concatenate
class ConcatenateDataset : public DatasetBase {
 public:
  ConcatenateDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class ConcatenateIterator : public IteratorBase {
 public:
  ConcatenateIterator(PipelineContext* ctx, IteratorStats* stats,
                      const ConcatenateDataset* dataset)
      : IteratorBase(ctx, stats), dataset_(dataset) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      if (current_ == nullptr) {
        if (index_ >= dataset_->inputs().size()) {
          *end = true;
          return OkStatus();
        }
        ASSIGN_OR_RETURN(current_,
                         dataset_->inputs()[index_]->MakeIterator(ctx_));
      }
      bool in_end = false;
      RETURN_IF_ERROR(current_->GetNext(out, &in_end));
      if (!in_end) {
        stats_->RecordConsumed();
        *end = false;
        return OkStatus();
      }
      current_.reset();
      ++index_;
    }
  }

  // Batched concatenate: drain the current child a whole batch at a
  // time, rolling over to the next child mid-batch.
  Status GetNextBatchInternal(std::vector<Element>* out, size_t max_elements,
                              bool* end) override {
    if (max_elements <= 1) {
      return IteratorBase::GetNextBatchInternal(out, max_elements, end);
    }
    size_t taken = 0;
    while (taken < max_elements) {
      if (current_ == nullptr) {
        if (index_ >= dataset_->inputs().size()) {
          *end = true;
          return OkStatus();
        }
        ASSIGN_OR_RETURN(current_,
                         dataset_->inputs()[index_]->MakeIterator(ctx_));
      }
      const size_t before = out->size();
      bool in_end = false;
      RETURN_IF_ERROR(
          current_->GetNextBatch(out, max_elements - taken, &in_end));
      const size_t claimed = out->size() - before;
      taken += claimed;
      if (claimed > 0) stats_->RecordConsumedBatch(claimed);
      if (in_end) {
        current_.reset();
        ++index_;
      }
    }
    return OkStatus();
  }

 private:
  const ConcatenateDataset* dataset_;
  std::unique_ptr<IteratorBase> current_;
  size_t index_ = 0;
};

StatusOr<std::unique_ptr<IteratorBase>> ConcatenateDataset::MakeIterator(
    PipelineContext* ctx) const {
  return std::unique_ptr<IteratorBase>(
      new ConcatenateIterator(ctx, StatsFor(ctx), this));
}

// --------------------------------------------------------- map_and_batch
class MapAndBatchDataset : public DatasetBase {
 public:
  MapAndBatchDataset(NodeDef def, std::vector<DatasetPtr> inputs,
                     const UdfSpec* udf)
      : DatasetBase(std::move(def), std::move(inputs)), udf_(udf) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

  const UdfSpec* udf() const { return udf_; }

 private:
  const UdfSpec* udf_;
};

// Workers of a governed WorkerPool each assemble a full batch: pull
// batch_size inputs under the input lock, run the UDF per element
// outside it, emit the batch. One handoff per batch instead of per
// element. Batches leave in completion order, and the pool retargets
// live like the parallel map's.
class MapAndBatchIterator : public IteratorBase {
 public:
  MapAndBatchIterator(PipelineContext* ctx, IteratorStats* stats,
                      std::unique_ptr<IteratorBase> input,
                      const UdfSpec* udf, int parallelism,
                      int64_t batch_size, bool drop_remainder,
                      uint64_t seed)
      : IteratorBase(ctx, stats),
        input_(std::move(input)),
        udf_(udf),
        batch_size_(batch_size < 1 ? 1 : batch_size),
        drop_remainder_(drop_remainder),
        seed_(seed),
        // Items are whole batches: two in flight per worker.
        pool_(ctx, stats,
              PoolSpec{std::max(parallelism, 1), /*governed=*/true,
                       /*depth_per_worker=*/2},
              [this](WorkerPool::Worker&) { return Claim(); }) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    return pool_.Next(out, end);
  }

 private:
  bool Claim() {
    // The whole batch in one child call under the input lock: one
    // cancellation check and CPU scope per batch instead of per element.
    std::vector<Element> raw;
    raw.reserve(batch_size_);
    bool saw_end = false;
    Status status;
    {
      std::lock_guard<std::mutex> lock(input_mu_);
      if (input_done_) return false;
      status = input_->GetNextBatch(&raw, static_cast<size_t>(batch_size_),
                                    &saw_end);
      if (!status.ok()) saw_end = true;
      input_done_ = saw_end;
      if (!raw.empty()) stats_->RecordConsumedBatch(raw.size());
    }
    const bool drop =
        drop_remainder_ && static_cast<int64_t>(raw.size()) < batch_size_;
    if (!raw.empty() && !drop) {
      Element batch;
      batch.sequence = raw.front().sequence;
      for (Element& in : raw) {
        const uint64_t seed = SplitMix64(seed_ ^ in.sequence);
        Element mapped =
            ExecuteMapUdf(*udf_, std::move(in), ctx_->cpu_scale, seed);
        for (auto& c : mapped.components) {
          batch.components.push_back(std::move(c));
        }
      }
      if (!pool_.Push(std::move(batch))) return false;
    }
    if (!status.ok()) return pool_.Fail(status);
    return !saw_end;
  }

  std::unique_ptr<IteratorBase> input_;
  const UdfSpec* udf_;
  const int64_t batch_size_;
  const bool drop_remainder_;
  const uint64_t seed_;
  std::mutex input_mu_;
  bool input_done_ = false;
  // Declared after everything its claims touch (joined first).
  WorkerPool pool_;
};

StatusOr<std::unique_ptr<IteratorBase>> MapAndBatchDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  return std::unique_ptr<IteratorBase>(new MapAndBatchIterator(
      ctx, StatsFor(ctx), std::move(input), udf_,
      static_cast<int>(def_.GetInt(kAttrParallelism, 1)),
      def_.GetInt(kAttrBatchSize, 1),
      def_.GetBool(kAttrDropRemainder, true), NodeSeed(ctx, def_)));
}

}  // namespace

StatusOr<DatasetPtr> MakeZipDataset(NodeDef def,
                                    std::vector<DatasetPtr> inputs,
                                    PipelineContext* ctx) {
  (void)ctx;
  if (inputs.size() < 2) {
    return InvalidArgumentError("zip takes at least two inputs");
  }
  return DatasetPtr(new ZipDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakeConcatenateDataset(NodeDef def,
                                            std::vector<DatasetPtr> inputs,
                                            PipelineContext* ctx) {
  (void)ctx;
  if (inputs.size() < 2) {
    return InvalidArgumentError("concatenate takes at least two inputs");
  }
  return DatasetPtr(
      new ConcatenateDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakeMapAndBatchDataset(NodeDef def,
                                            std::vector<DatasetPtr> inputs,
                                            PipelineContext* ctx) {
  if (inputs.size() != 1) {
    return InvalidArgumentError("map_and_batch takes one input");
  }
  const std::string udf_name = def.GetString(kAttrUdf);
  const UdfSpec* udf =
      ctx->udfs != nullptr ? ctx->udfs->Find(udf_name) : nullptr;
  if (udf == nullptr) {
    return NotFoundError("map_and_batch udf not registered: " + udf_name);
  }
  return DatasetPtr(
      new MapAndBatchDataset(std::move(def), std::move(inputs), udf));
}

}  // namespace plumber
