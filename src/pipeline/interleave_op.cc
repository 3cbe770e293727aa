// Interleave: parallel reading of record files.
//
// Sequential mode (parallelism == 1) implements true cycle/block
// round-robin over up to cycle_length open files, matching tf.data
// semantics. Parallel mode assigns whole files to `parallelism` reader
// workers feeding a bounded queue — the read-parallelism knob that
// drives the parallelism->bandwidth curve for throttled storage.
#include <atomic>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/pipeline/ops.h"
#include "src/pipeline/worker_pool.h"
#include "src/util/buffer_pool.h"

namespace plumber {
namespace {

class InterleaveDataset : public DatasetBase {
 public:
  InterleaveDataset(NodeDef def, std::vector<DatasetPtr> inputs)
      : DatasetBase(std::move(def), std::move(inputs)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

  int parallelism() const {
    return static_cast<int>(def_.GetInt(kAttrParallelism, 1));
  }
  int cycle_length() const {
    return static_cast<int>(def_.GetInt(kAttrCycleLength, 4));
  }
  int block_length() const {
    return static_cast<int>(def_.GetInt(kAttrBlockLength, 1));
  }
};

// Pulls the next filename from the (serialized) child iterator.
Status NextFilename(IteratorBase* input, IteratorStats* stats,
                    std::string* name, bool* end) {
  Element elem;
  RETURN_IF_ERROR(input->GetNext(&elem, end));
  if (*end) return OkStatus();
  stats->RecordConsumed();
  name->assign(elem.components[0].begin(), elem.components[0].end());
  return OkStatus();
}

class SequentialInterleaveIterator : public IteratorBase {
 public:
  SequentialInterleaveIterator(PipelineContext* ctx, IteratorStats* stats,
                               std::unique_ptr<IteratorBase> input,
                               int cycle_length, int block_length,
                               StorageDevice* shard_device)
      : IteratorBase(ctx, stats), input_(std::move(input)),
        cycle_length_(cycle_length < 1 ? 1 : cycle_length),
        block_length_(block_length < 1 ? 1 : block_length),
        shard_device_(shard_device) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      // Top up the cycle with open readers.
      while (!files_done_ &&
             static_cast<int>(cycle_.size()) < cycle_length_) {
        std::string name;
        bool files_end = false;
        RETURN_IF_ERROR(NextFilename(input_.get(), stats_, &name, &files_end));
        if (files_end) {
          files_done_ = true;
          break;
        }
        auto reader_or = shard_device_ != nullptr
                             ? ctx_->fs->OpenRecord(name, shard_device_)
                             : ctx_->fs->OpenRecord(name);
        RETURN_IF_ERROR(reader_or.status());
        cycle_.push_back(Slot{std::move(reader_or).value(), 0});
      }
      if (cycle_.empty()) {
        *end = true;
        return OkStatus();
      }
      if (cursor_ >= cycle_.size()) cursor_ = 0;
      Slot& slot = cycle_[cursor_];
      // Recycled record buffer: sized at the previous record so the
      // reader's resize stays within capacity in steady state.
      Buffer payload = BufferPool::Get()->Acquire(last_payload_bytes_);
      bool file_end = false;
      RETURN_IF_ERROR(slot.reader->ReadRecord(&payload, &file_end));
      if (file_end) {
        BufferPool::Get()->Release(std::move(payload));
        cycle_.erase(cycle_.begin() + static_cast<long>(cursor_));
        continue;
      }
      last_payload_bytes_ = payload.size();
      stats_->AddBytesRead(payload.size() + kRecordFramingBytes);
      *out = Element::FromBuffer(std::move(payload), sequence_++);
      *end = false;
      if (++slot.emitted_in_block >= block_length_) {
        slot.emitted_in_block = 0;
        ++cursor_;
      }
      return OkStatus();
    }
  }

 private:
  struct Slot {
    std::unique_ptr<RecordReader> reader;
    int emitted_in_block = 0;
  };

  std::unique_ptr<IteratorBase> input_;
  const int cycle_length_;
  const int block_length_;
  StorageDevice* shard_device_;  // null = the filesystem's device
  std::vector<Slot> cycle_;
  size_t cursor_ = 0;
  bool files_done_ = false;
  uint64_t sequence_ = 0;
  size_t last_payload_bytes_ = 64;
};

// Parallel interleave on a governed WorkerPool: each claim is one whole
// file, read to its end, so parking at claim boundaries strands no
// records. A reader hands records off worker.claim() at a time, sized
// by the pool from the measured read cost. File-to-worker assignment is
// already nondeterministic, so a resize history changes element order
// but never the element multiset.
class ParallelInterleaveIterator : public IteratorBase {
 public:
  ParallelInterleaveIterator(PipelineContext* ctx, IteratorStats* stats,
                             std::unique_ptr<IteratorBase> input,
                             int parallelism, StorageDevice* shard_device)
      : IteratorBase(ctx, stats), input_(std::move(input)),
        shard_device_(shard_device),
        pool_(ctx, stats, PoolSpec{parallelism, /*governed=*/true},
              [this](WorkerPool::Worker& worker) { return Claim(worker); }) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    return pool_.Next(out, end);
  }

 private:
  bool Claim(WorkerPool::Worker& worker) {
    std::string name;
    bool done = false;
    Status status;
    {
      std::lock_guard<std::mutex> lock(input_mu_);
      if (files_done_) return false;
      status = NextFilename(input_.get(), stats_, &name, &done);
      if (!status.ok() || done) files_done_ = true;
    }
    if (!status.ok()) return pool_.Fail(status);
    if (done) return false;
    worker.StartWork();
    auto reader_or = shard_device_ != nullptr
                         ? ctx_->fs->OpenRecord(name, shard_device_)
                         : ctx_->fs->OpenRecord(name);
    if (!reader_or.ok()) return pool_.Fail(reader_or.status());
    auto reader = std::move(reader_or).value();
    std::vector<WorkerPool::Item> pending;
    pending.reserve(worker.claim());
    // Recycled record buffers (see SequentialInterleave), sized at the
    // last record any reader saw.
    size_t payload_bytes = last_payload_bytes_.load(std::memory_order_relaxed);
    for (;;) {
      Buffer payload = BufferPool::Get()->Acquire(payload_bytes);
      bool file_end = false;
      Status read_status;
      {
        std::optional<CpuAccountingScope> scope;
        if (ctx_->tracing_enabled) scope.emplace(stats_);
        read_status = reader->ReadRecord(&payload, &file_end);
      }
      if (!read_status.ok()) {
        pool_.PushBatch(worker, std::move(pending));
        return pool_.Fail(read_status);
      }
      if (file_end) {
        BufferPool::Get()->Release(std::move(payload));
        break;
      }
      payload_bytes = payload.size();
      stats_->AddBytesRead(payload.size() + kRecordFramingBytes);
      Element element = Element::FromBuffer(
          std::move(payload),
          sequence_.fetch_add(1, std::memory_order_relaxed));
      pending.push_back(
          WorkerPool::Item{0, std::move(element), OkStatus(), false});
      if (pending.size() >= worker.claim()) {
        if (!pool_.PushBatch(worker, std::exchange(pending, {}))) {
          return false;
        }
        pending.reserve(worker.claim());
      }
    }
    last_payload_bytes_.store(payload_bytes, std::memory_order_relaxed);
    // Flush the file's tail so a slow next file cannot strand records.
    return pool_.PushBatch(worker, std::move(pending));
  }

  std::unique_ptr<IteratorBase> input_;
  StorageDevice* shard_device_;  // null = the filesystem's device

  std::mutex input_mu_;
  bool files_done_ = false;
  std::atomic<uint64_t> sequence_{0};
  std::atomic<size_t> last_payload_bytes_{64};

  // Declared after everything its claims touch (joined first).
  WorkerPool pool_;
};

StatusOr<std::unique_ptr<IteratorBase>> InterleaveDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  IteratorStats* stats = StatsFor(ctx);
  // A shard-stamped interleave (or one whose file_list child carries
  // the stamp) reads through its own modeled shard disk.
  StorageDevice* shard_device = ShardDeviceFor(def_, ctx);
  if (shard_device == nullptr && !inputs_.empty()) {
    shard_device = ShardDeviceFor(inputs_[0]->def(), ctx);
  }
  const int p = parallelism();
  if (p <= 1) {
    stats->SetParallelism(1);
    return std::unique_ptr<IteratorBase>(new SequentialInterleaveIterator(
        ctx, stats, std::move(input), cycle_length(), block_length(),
        shard_device));
  }
  return std::unique_ptr<IteratorBase>(new ParallelInterleaveIterator(
      ctx, stats, std::move(input), p, shard_device));
}

}  // namespace

StatusOr<DatasetPtr> MakeInterleaveDataset(NodeDef def,
                                           std::vector<DatasetPtr> inputs,
                                           PipelineContext* ctx) {
  if (inputs.size() != 1) {
    return InvalidArgumentError("interleave takes one input");
  }
  if (ctx->fs == nullptr) {
    return FailedPreconditionError("interleave requires a filesystem");
  }
  return DatasetPtr(new InterleaveDataset(std::move(def), std::move(inputs)));
}

}  // namespace plumber
