// Map (sequential + parallel) and filter operators.
#include <mutex>
#include <optional>

#include "src/pipeline/ops.h"
#include "src/pipeline/worker_pool.h"
#include "src/util/reorder_ring.h"
#include "src/util/rng.h"

namespace plumber {
namespace {

uint64_t NodeSeed(const PipelineContext* ctx, const NodeDef& def) {
  uint64_t h = ctx->seed;
  for (char c : def.name) h = SplitMix64(h ^ static_cast<uint8_t>(c));
  return h;
}

// ------------------------------------------------------------------ map
class MapDataset : public DatasetBase {
 public:
  MapDataset(NodeDef def, std::vector<DatasetPtr> inputs, const UdfSpec* udf)
      : DatasetBase(std::move(def), std::move(inputs)), udf_(udf) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

  const UdfSpec* udf() const { return udf_; }
  int parallelism() const {
    return static_cast<int>(def_.GetInt(kAttrParallelism, 1));
  }
  bool deterministic() const { return def_.GetBool(kAttrDeterministic, true); }

 private:
  const UdfSpec* udf_;
};

class SequentialMapIterator : public IteratorBase {
 public:
  SequentialMapIterator(PipelineContext* ctx, IteratorStats* stats,
                        std::unique_ptr<IteratorBase> input,
                        const UdfSpec* udf, uint64_t seed)
      : IteratorBase(ctx, stats), input_(std::move(input)), udf_(udf),
        seed_(seed) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    Element in;
    RETURN_IF_ERROR(input_->GetNext(&in, end));
    if (*end) return OkStatus();
    stats_->RecordConsumed();
    const uint64_t seed = SplitMix64(seed_ ^ in.sequence);
    *out = ExecuteMapUdf(*udf_, std::move(in), ctx_->cpu_scale, seed);
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const UdfSpec* udf_;
  const uint64_t seed_;
};

// Parallel map on a governed WorkerPool: workers pull from the
// (serialized) child, execute the UDF, and push to the pool's output
// edge. Deterministic mode restores input order with a reorder ring
// keyed by a pull-time ticket.
//
// Each claim takes worker.claim() inputs under one input-lock
// acquisition, executes the UDF per element, and hands the results off
// in one push; the pool sizes claims from the timed UDF loop. Order
// tickets are claimed under the input lock, so deterministic output is
// unchanged by claim sizes or by any resize history.
class ParallelMapIterator : public IteratorBase {
 public:
  ParallelMapIterator(PipelineContext* ctx, IteratorStats* stats,
                      std::unique_ptr<IteratorBase> input, const UdfSpec* udf,
                      int parallelism, bool deterministic, uint64_t seed)
      : IteratorBase(ctx, stats),
        input_(std::move(input)),
        udf_(udf),
        deterministic_(deterministic),
        seed_(seed),
        pool_(ctx, stats, PoolSpec{parallelism, /*governed=*/true},
              [this](WorkerPool::Worker& worker) { return Claim(worker); }),
        pending_(pool_.capacity() * 2) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    if (!deterministic_) return pool_.Next(out, end);
    for (;;) {
      if (pending_.TakeIfPresent(expected_, out)) {
        ++expected_;
        *end = false;
        return OkStatus();
      }
      Element element;
      uint64_t order = 0;
      const Status status = pool_.Next(&element, end, &order);
      if (!status.ok() || *end) return status;
      pending_.Insert(expected_, order, std::move(element));
    }
  }

 private:
  bool Claim(WorkerPool::Worker& worker) {
    std::vector<Element> claimed;
    claimed.reserve(worker.claim());
    bool end = false;
    uint64_t order_base = 0;
    Status status;
    {
      std::lock_guard<std::mutex> lock(input_mu_);
      if (input_done_) return false;
      status = input_->GetNextBatch(&claimed, worker.claim(), &end);
      if (!status.ok() || end) input_done_ = true;
      order_base = next_order_;
      next_order_ += claimed.size();
      if (!claimed.empty()) stats_->RecordConsumedBatch(claimed.size());
    }
    std::vector<WorkerPool::Item> results;
    results.reserve(claimed.size());
    {
      std::optional<CpuAccountingScope> scope;
      if (ctx_->tracing_enabled && !claimed.empty()) scope.emplace(stats_);
      worker.StartWork();
      for (size_t i = 0; i < claimed.size(); ++i) {
        const uint64_t seed = SplitMix64(seed_ ^ claimed[i].sequence);
        Element result = ExecuteMapUdf(*udf_, std::move(claimed[i]),
                                       ctx_->cpu_scale, seed);
        results.push_back(WorkerPool::Item{order_base + i, std::move(result),
                                           OkStatus(), false});
      }
    }
    if (!pool_.PushBatch(worker, std::move(results))) return false;
    if (!status.ok()) return pool_.Fail(status);
    return !end;
  }

  std::unique_ptr<IteratorBase> input_;
  const UdfSpec* udf_;
  const bool deterministic_;
  const uint64_t seed_;

  std::mutex input_mu_;
  bool input_done_ = false;
  uint64_t next_order_ = 0;

  // Declared after everything its claims touch (joined first).
  WorkerPool pool_;
  // Consumer-side deterministic reorder buffer: a flat O(1) ring, not a
  // std::map — the lookup runs once per emitted element.
  ReorderRing<Element> pending_;
  uint64_t expected_ = 0;
};

StatusOr<std::unique_ptr<IteratorBase>> MapDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  const uint64_t seed = NodeSeed(ctx, def_);
  IteratorStats* stats = StatsFor(ctx);
  stats->SetUdfName(udf_->name);
  const int p = parallelism();
  if (p <= 1) {
    stats->SetParallelism(1);
    return std::unique_ptr<IteratorBase>(new SequentialMapIterator(
        ctx, stats, std::move(input), udf_, seed));
  }
  return std::unique_ptr<IteratorBase>(new ParallelMapIterator(
      ctx, stats, std::move(input), udf_, p, deterministic(), seed));
}

// ---------------------------------------------------------------- filter
class FilterDataset : public DatasetBase {
 public:
  FilterDataset(NodeDef def, std::vector<DatasetPtr> inputs,
                const UdfSpec* udf)
      : DatasetBase(std::move(def), std::move(inputs)), udf_(udf) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

 private:
  const UdfSpec* udf_;
};

// Sequential filter. A consumer claiming many elements at once (a
// parallel map worker, batch assembly) drives the overridden
// GetNextBatchInternal below, which claims whole runs from the input in
// turn — one cancellation check and CPU scope per claim on both sides,
// and the predicate runs once per element either way. Decisions are
// deterministic in (seed, element.sequence), so claim sizes never
// change which elements survive.
class FilterIterator : public IteratorBase {
 public:
  FilterIterator(PipelineContext* ctx, IteratorStats* stats,
                 std::unique_ptr<IteratorBase> input, const UdfSpec* udf,
                 uint64_t seed)
      : IteratorBase(ctx, stats), input_(std::move(input)), udf_(udf),
        seed_(seed) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      Element in;
      RETURN_IF_ERROR(input_->GetNext(&in, end));
      if (*end) return OkStatus();
      stats_->RecordConsumed();
      if (ExecuteFilterUdf(*udf_, in, ctx_->cpu_scale, seed_)) {
        *out = std::move(in);
        return OkStatus();
      }
    }
  }

  Status GetNextBatchInternal(std::vector<Element>* out, size_t max_elements,
                              bool* end) override {
    size_t produced = 0;
    while (produced < max_elements) {
      // Claim only as many inputs as outputs still owed: survivors never
      // exceed the claim, so no kept element has to be buffered across
      // calls (GetNext and GetNextBatch stay freely interleavable).
      claimed_.clear();
      bool input_end = false;
      RETURN_IF_ERROR(input_->GetNextBatch(
          &claimed_, max_elements - produced, &input_end));
      if (!claimed_.empty()) stats_->RecordConsumedBatch(claimed_.size());
      for (Element& element : claimed_) {
        if (ExecuteFilterUdf(*udf_, element, ctx_->cpu_scale, seed_)) {
          out->push_back(std::move(element));
          ++produced;
        }
      }
      if (input_end) {
        *end = true;
        return OkStatus();
      }
    }
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  const UdfSpec* udf_;
  const uint64_t seed_;
  std::vector<Element> claimed_;  // reused claim buffer
};

StatusOr<std::unique_ptr<IteratorBase>> FilterDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  IteratorStats* stats = StatsFor(ctx);
  stats->SetUdfName(udf_->name);
  return std::unique_ptr<IteratorBase>(new FilterIterator(
      ctx, stats, std::move(input), udf_, NodeSeed(ctx, def_)));
}

const UdfSpec* LookupUdf(const NodeDef& def, PipelineContext* ctx,
                         Status* status) {
  if (ctx->udfs == nullptr) {
    *status = FailedPreconditionError("no udf registry");
    return nullptr;
  }
  const std::string udf_name = def.GetString(kAttrUdf);
  const UdfSpec* spec = ctx->udfs->Find(udf_name);
  if (spec == nullptr) {
    *status = NotFoundError("no such udf: " + udf_name);
  }
  return spec;
}

}  // namespace

StatusOr<DatasetPtr> MakeMapDataset(NodeDef def,
                                    std::vector<DatasetPtr> inputs,
                                    PipelineContext* ctx) {
  Status status;
  const UdfSpec* udf = LookupUdf(def, ctx, &status);
  if (udf == nullptr) return status;
  return DatasetPtr(new MapDataset(std::move(def), std::move(inputs), udf));
}

StatusOr<DatasetPtr> MakeFilterDataset(NodeDef def,
                                       std::vector<DatasetPtr> inputs,
                                       PipelineContext* ctx) {
  Status status;
  const UdfSpec* udf = LookupUdf(def, ctx, &status);
  if (udf == nullptr) return status;
  return DatasetPtr(new FilterDataset(std::move(def), std::move(inputs), udf));
}

}  // namespace plumber
