// Flow-control operators: shuffle, shuffle_and_repeat, repeat, take, skip.
#include "src/pipeline/ops.h"
#include "src/util/rng.h"

namespace plumber {
namespace {

// --------------------------------------------------------------- shuffle
class ShuffleDataset : public DatasetBase {
 public:
  ShuffleDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class ShuffleIterator : public IteratorBase {
 public:
  ShuffleIterator(PipelineContext* ctx, IteratorStats* stats,
                  std::unique_ptr<IteratorBase> input, size_t buffer_size,
                  uint64_t seed)
      : IteratorBase(ctx, stats), input_(std::move(input)),
        buffer_size_(buffer_size == 0 ? 1 : buffer_size), rng_(seed) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    // Fill phase: top the buffer up to capacity, claiming the whole
    // deficit per GetNextBatch call — one cancellation check and CPU
    // scope on the input per refill, and a queue-backed input (parallel
    // map, prefetch) hands the batch over under one lock. Elements
    // arrive in the same order repeated GetNext would deliver, so the
    // shuffle draws (and therefore the output) are unchanged.
    while (!input_exhausted_ && buffer_.size() < buffer_size_) {
      const size_t before = buffer_.size();
      bool in_end = false;
      RETURN_IF_ERROR(
          input_->GetNextBatch(&buffer_, buffer_size_ - before, &in_end));
      if (buffer_.size() > before) {
        stats_->RecordConsumedBatch(buffer_.size() - before);
      }
      if (in_end) {
        input_exhausted_ = true;
        break;
      }
    }
    if (buffer_.empty()) {
      *end = true;
      return OkStatus();
    }
    const size_t idx = rng_.UniformInt(buffer_.size());
    *out = std::move(buffer_[idx]);
    buffer_[idx] = std::move(buffer_.back());
    buffer_.pop_back();
    *end = false;
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const size_t buffer_size_;
  Rng rng_;
  std::vector<Element> buffer_;
  bool input_exhausted_ = false;
};

StatusOr<std::unique_ptr<IteratorBase>> ShuffleDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  return std::unique_ptr<IteratorBase>(new ShuffleIterator(
      ctx, StatsFor(ctx), std::move(input),
      static_cast<size_t>(def_.GetInt(kAttrBufferSize, 1024)),
      ctx->seed ^ static_cast<uint64_t>(def_.GetInt(kAttrSeed, 7))));
}

// ---------------------------------------------------------------- repeat
class RepeatDataset : public DatasetBase {
 public:
  RepeatDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class RepeatIterator : public IteratorBase {
 public:
  RepeatIterator(PipelineContext* ctx, IteratorStats* stats,
                 const DatasetBase* input_dataset, int64_t count)
      : IteratorBase(ctx, stats), input_dataset_(input_dataset),
        count_(count) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      if (count_ >= 0 && epoch_ >= count_) {
        *end = true;
        return OkStatus();
      }
      if (input_ == nullptr) {
        ASSIGN_OR_RETURN(input_, input_dataset_->MakeIterator(ctx_));
      }
      bool in_end = false;
      RETURN_IF_ERROR(input_->GetNext(out, &in_end));
      if (!in_end) {
        stats_->RecordConsumed();
        produced_this_epoch_ = true;
        *end = false;
        return OkStatus();
      }
      input_.reset();
      ++epoch_;
      if (!produced_this_epoch_ && count_ < 0) {
        // An infinitely repeated empty dataset would spin forever.
        *end = true;
        return OkStatus();
      }
      produced_this_epoch_ = false;
    }
  }

 private:
  const DatasetBase* input_dataset_;
  const int64_t count_;
  std::unique_ptr<IteratorBase> input_;
  int64_t epoch_ = 0;
  bool produced_this_epoch_ = false;
};

StatusOr<std::unique_ptr<IteratorBase>> RepeatDataset::MakeIterator(
    PipelineContext* ctx) const {
  return std::unique_ptr<IteratorBase>(
      new RepeatIterator(ctx, StatsFor(ctx), inputs_[0].get(),
                         def_.GetInt(kAttrCount, -1)));
}

// ---------------------------------------------------- shuffle_and_repeat
// Fused shuffle+repeat (as used by GNMT): reshuffles each epoch with a
// different derived seed.
class ShuffleAndRepeatDataset : public DatasetBase {
 public:
  ShuffleAndRepeatDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class ShuffleAndRepeatIterator : public IteratorBase {
 public:
  ShuffleAndRepeatIterator(PipelineContext* ctx, IteratorStats* stats,
                           const DatasetBase* input_dataset,
                           size_t buffer_size, uint64_t seed, int64_t count)
      : IteratorBase(ctx, stats), input_dataset_(input_dataset),
        buffer_size_(buffer_size == 0 ? 1 : buffer_size), seed_(seed),
        count_(count), rng_(seed) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      if (count_ >= 0 && epoch_ >= count_) {
        *end = true;
        return OkStatus();
      }
      if (input_ == nullptr && !input_exhausted_) {
        ASSIGN_OR_RETURN(input_, input_dataset_->MakeIterator(ctx_));
        rng_ = Rng(SplitMix64(seed_ ^ static_cast<uint64_t>(epoch_)));
      }
      // Whole-deficit refill claims, same as ShuffleIterator above;
      // identical element order keeps the per-epoch draws unchanged.
      while (!input_exhausted_ && buffer_.size() < buffer_size_) {
        const size_t before = buffer_.size();
        bool in_end = false;
        RETURN_IF_ERROR(
            input_->GetNextBatch(&buffer_, buffer_size_ - before, &in_end));
        if (buffer_.size() > before) {
          stats_->RecordConsumedBatch(buffer_.size() - before);
          saw_elements_this_run_ = true;
        }
        if (in_end) {
          input_exhausted_ = true;
          input_.reset();
          break;
        }
      }
      if (!buffer_.empty()) {
        const size_t idx = rng_.UniformInt(buffer_.size());
        *out = std::move(buffer_[idx]);
        buffer_[idx] = std::move(buffer_.back());
        buffer_.pop_back();
        *end = false;
        return OkStatus();
      }
      // Epoch boundary.
      ++epoch_;
      if (!saw_elements_this_run_) {
        *end = true;  // empty child: avoid infinite spin
        return OkStatus();
      }
      saw_elements_this_run_ = false;
      input_exhausted_ = false;
    }
  }

 private:
  const DatasetBase* input_dataset_;
  const size_t buffer_size_;
  const uint64_t seed_;
  const int64_t count_;
  std::unique_ptr<IteratorBase> input_;
  std::vector<Element> buffer_;
  Rng rng_;
  bool input_exhausted_ = false;
  int64_t epoch_ = 0;
  bool saw_elements_this_run_ = false;
};

StatusOr<std::unique_ptr<IteratorBase>> ShuffleAndRepeatDataset::MakeIterator(
    PipelineContext* ctx) const {
  return std::unique_ptr<IteratorBase>(new ShuffleAndRepeatIterator(
      ctx, StatsFor(ctx), inputs_[0].get(),
      static_cast<size_t>(def_.GetInt(kAttrBufferSize, 1024)),
      ctx->seed ^ static_cast<uint64_t>(def_.GetInt(kAttrSeed, 11)),
      def_.GetInt(kAttrCount, -1)));
}

// ------------------------------------------------------------ take/skip
class TakeDataset : public DatasetBase {
 public:
  TakeDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class TakeIterator : public IteratorBase {
 public:
  TakeIterator(PipelineContext* ctx, IteratorStats* stats,
               std::unique_ptr<IteratorBase> input, int64_t count)
      : IteratorBase(ctx, stats), input_(std::move(input)), count_(count) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    if (taken_ >= count_) {
      *end = true;
      return OkStatus();
    }
    RETURN_IF_ERROR(input_->GetNext(out, end));
    if (!*end) {
      stats_->RecordConsumed();
      ++taken_;
    }
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const int64_t count_;
  int64_t taken_ = 0;
};

StatusOr<std::unique_ptr<IteratorBase>> TakeDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  return std::unique_ptr<IteratorBase>(new TakeIterator(
      ctx, StatsFor(ctx), std::move(input), def_.GetInt(kAttrCount, 0)));
}

class SkipDataset : public DatasetBase {
 public:
  SkipDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;
};

class SkipIterator : public IteratorBase {
 public:
  SkipIterator(PipelineContext* ctx, IteratorStats* stats,
               std::unique_ptr<IteratorBase> input, int64_t count)
      : IteratorBase(ctx, stats), input_(std::move(input)), count_(count) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    while (skipped_ < count_) {
      Element scratch;
      RETURN_IF_ERROR(input_->GetNext(&scratch, end));
      if (*end) return OkStatus();
      stats_->RecordConsumed();
      ++skipped_;
    }
    RETURN_IF_ERROR(input_->GetNext(out, end));
    if (!*end) stats_->RecordConsumed();
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const int64_t count_;
  int64_t skipped_ = 0;
};

StatusOr<std::unique_ptr<IteratorBase>> SkipDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  return std::unique_ptr<IteratorBase>(new SkipIterator(
      ctx, StatsFor(ctx), std::move(input), def_.GetInt(kAttrCount, 0)));
}

}  // namespace

StatusOr<DatasetPtr> MakeShuffleDataset(NodeDef def,
                                        std::vector<DatasetPtr> inputs,
                                        PipelineContext*) {
  return DatasetPtr(new ShuffleDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakeShuffleAndRepeatDataset(
    NodeDef def, std::vector<DatasetPtr> inputs, PipelineContext*) {
  return DatasetPtr(
      new ShuffleAndRepeatDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakeRepeatDataset(NodeDef def,
                                       std::vector<DatasetPtr> inputs,
                                       PipelineContext*) {
  return DatasetPtr(new RepeatDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakeTakeDataset(NodeDef def,
                                     std::vector<DatasetPtr> inputs,
                                     PipelineContext*) {
  return DatasetPtr(new TakeDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakeSkipDataset(NodeDef def,
                                     std::vector<DatasetPtr> inputs,
                                     PipelineContext*) {
  return DatasetPtr(new SkipDataset(std::move(def), std::move(inputs)));
}

}  // namespace plumber
