// Multi-input operators: zip and concatenate.
//
// zip pairs one element from each input per output (the (image, label)
// tuple construction the paper's §2.1 describes); concatenate chains
// datasets end to end.
#include <algorithm>
#include <vector>

#include "src/pipeline/ops.h"

namespace plumber {
namespace {

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

}  // namespace

StatusOr<DatasetPtr> MakeZipDataset(NodeDef def,
                                    std::vector<DatasetPtr> inputs,
                                    PipelineContext*) {
  return DatasetPtr(new ZipDataset(std::move(def), std::move(inputs)));
}

StatusOr<DatasetPtr> MakeConcatenateDataset(NodeDef def,
                                            std::vector<DatasetPtr> inputs,
                                            PipelineContext*) {
  return DatasetPtr(
      new ConcatenateDataset(std::move(def), std::move(inputs)));
}

}  // namespace plumber
