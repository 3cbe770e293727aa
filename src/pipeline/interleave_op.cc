// Record readers: tfrecord, remote_read and interleave.
//
// One dataset serves all three ops. interleave takes its cycle shape
// (cycle_length, block_length, parallelism) from its attrs; tfrecord
// and remote_read are a cycle of one file, which streams each file to
// its end before opening the next. remote_read differs only in its
// meters: every record is also charged, with framing, to the remote
// host's NIC (a device the dataset owns, modeled from the node's
// remote_nic_bandwidth/remote_nic_latency attrs), then to this host's
// NIC (PipelineContext::nic), then to the node's network_bytes.
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

struct ReaderShape {
  int cycle_length = 1;
  int block_length = 1;
  int parallelism = 1;
};

class InterleaveDataset : public DatasetBase {
 public:
  // `remote_nic` is the remote endpoint's NIC for remote_read, else
  // null.
  InterleaveDataset(NodeDef def, std::vector<DatasetPtr> inputs,
                    ReaderShape shape,
                    std::unique_ptr<StorageDevice> remote_nic)
      : DatasetBase(std::move(def), std::move(inputs)), shape_(shape),
        remote_nic_(std::move(remote_nic)) {}

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

 private:
  const ReaderShape shape_;
  // Shared by every iterator of this dataset: all readers of one
  // remote source contend for one remote uplink.
  std::unique_ptr<StorageDevice> remote_nic_;
};

// What both iterators share: the file names they pull, the device the
// files open on, and the one record read.
class RecordIteratorBase : public IteratorBase {
 protected:
  // `device` null = the filesystem's device; `remote_nic` null = a
  // local read.
  RecordIteratorBase(PipelineContext* ctx, IteratorStats* stats,
                     std::unique_ptr<IteratorBase> input,
                     StorageDevice* device, StorageDevice* remote_nic)
      : IteratorBase(ctx, stats), input_(std::move(input)), device_(device),
        remote_nic_(remote_nic) {}

  // Pulls the next filename from the (serialized) child iterator.
  Status NextFilename(std::string* name, bool* end) {
    Element elem;
    RETURN_IF_ERROR(input_->GetNext(&elem, end));
    if (*end) return OkStatus();
    stats_->RecordConsumed();
    name->assign(elem.components[0].begin(), elem.components[0].end());
    return OkStatus();
  }

  StatusOr<std::unique_ptr<RecordReader>> Open(const std::string& name) {
    return device_ != nullptr ? ctx_->fs->OpenRecord(name, device_)
                              : ctx_->fs->OpenRecord(name);
  }

  // Reads `reader`'s next record into *out, stamped with the next value
  // of *sequence (a plain counter in the sequential reader, an atomic
  // one in the parallel reader). The buffer is recycled and acquired at
  // *last_bytes, the last record's size: records in a file are
  // near-uniform, so the read's resize stays within capacity and the
  // per-record allocation disappears in steady state. At the file's
  // end, sets *file_end and hands the buffer back.
  template <typename Counter>
  Status NextRecord(RecordReader* reader, size_t* last_bytes,
                    Counter* sequence, Element* out, bool* file_end) {
    Buffer payload = BufferPool::Get()->Acquire(*last_bytes);
    RETURN_IF_ERROR(reader->ReadRecord(&payload, file_end));
    if (*file_end) {
      BufferPool::Get()->Release(std::move(payload));
      return OkStatus();
    }
    *last_bytes = payload.size();
    const uint64_t wire_bytes = payload.size() + kRecordFramingBytes;
    stats_->AddBytesRead(wire_bytes);
    if (remote_nic_ != nullptr) {
      // The record crosses the wire once; both endpoints' NICs carry it.
      remote_nic_->Charge(wire_bytes);
      if (ctx_->nic != nullptr) ctx_->nic->Charge(wire_bytes);
      stats_->AddNetworkBytes(wire_bytes);
    }
    *out = Element::FromBuffer(std::move(payload), (*sequence)++);
    return OkStatus();
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  StorageDevice* const device_;
  StorageDevice* const remote_nic_;
};

class SequentialInterleaveIterator : public RecordIteratorBase {
 public:
  SequentialInterleaveIterator(PipelineContext* ctx, IteratorStats* stats,
                               std::unique_ptr<IteratorBase> input,
                               StorageDevice* device,
                               StorageDevice* remote_nic,
                               const ReaderShape& shape)
      : RecordIteratorBase(ctx, stats, std::move(input), device, remote_nic),
        cycle_length_(shape.cycle_length < 1 ? 1 : shape.cycle_length),
        block_length_(shape.block_length < 1 ? 1 : shape.block_length) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      // Top up the cycle with open readers.
      while (!files_done_ &&
             static_cast<int>(cycle_.size()) < cycle_length_) {
        std::string name;
        bool files_end = false;
        RETURN_IF_ERROR(NextFilename(&name, &files_end));
        if (files_end) {
          files_done_ = true;
          break;
        }
        ASSIGN_OR_RETURN(auto reader, Open(name));
        cycle_.push_back(Slot{std::move(reader), 0});
      }
      if (cycle_.empty()) {
        *end = true;
        return OkStatus();
      }
      if (cursor_ >= cycle_.size()) cursor_ = 0;
      Slot& slot = cycle_[cursor_];
      bool file_end = false;
      RETURN_IF_ERROR(NextRecord(slot.reader.get(), &last_payload_bytes_,
                                 &sequence_, out, &file_end));
      if (file_end) {
        cycle_.erase(cycle_.begin() + static_cast<long>(cursor_));
        continue;
      }
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

  const int cycle_length_;
  const int block_length_;
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
class ParallelInterleaveIterator : public RecordIteratorBase {
 public:
  ParallelInterleaveIterator(PipelineContext* ctx, IteratorStats* stats,
                             std::unique_ptr<IteratorBase> input,
                             StorageDevice* device, StorageDevice* remote_nic,
                             int parallelism)
      : RecordIteratorBase(ctx, stats, std::move(input), device, remote_nic),
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
      status = NextFilename(&name, &done);
      if (!status.ok() || done) files_done_ = true;
    }
    if (!status.ok()) return pool_.Fail(status);
    if (done) return false;
    worker.StartWork();
    auto reader_or = Open(name);
    if (!reader_or.ok()) return pool_.Fail(reader_or.status());
    auto reader = std::move(reader_or).value();
    std::vector<WorkerPool::Item> pending;
    pending.reserve(worker.claim());
    // Sized at the last record any reader saw.
    size_t payload_bytes = last_payload_bytes_.load(std::memory_order_relaxed);
    for (;;) {
      Element element;
      bool file_end = false;
      Status read_status;
      {
        std::optional<CpuAccountingScope> scope;
        if (ctx_->tracing_enabled) scope.emplace(stats_);
        read_status = NextRecord(reader.get(), &payload_bytes, &sequence_,
                                 &element, &file_end);
      }
      if (!read_status.ok()) {
        pool_.PushBatch(worker, std::move(pending));
        return pool_.Fail(read_status);
      }
      if (file_end) break;
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

  std::mutex input_mu_;
  bool files_done_ = false;
  std::atomic<uint64_t> sequence_{0};
  std::atomic<size_t> last_payload_bytes_{64};

  // Declared after everything its claims touch (joined first).
  WorkerPool pool_;
};

// The shard disk a reader meters against: its own shard stamp's, else
// its file_list input's; null = the filesystem's device.
StorageDevice* ReaderDevice(const NodeDef& def, const NodeDef& input,
                            PipelineContext* ctx) {
  if (ctx->shard_devices == nullptr) return nullptr;
  for (const NodeDef* stamped : {&def, &input}) {
    const int shard = static_cast<int>(stamped->GetInt(kAttrShardIndex, -1));
    if (shard >= 0) return ctx->shard_devices->DeviceFor(shard);
  }
  return nullptr;
}

StatusOr<std::unique_ptr<IteratorBase>> InterleaveDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  IteratorStats* stats = StatsFor(ctx);
  StorageDevice* device = ReaderDevice(def_, inputs_[0]->def(), ctx);
  if (shape_.parallelism <= 1) {
    stats->SetParallelism(1);
    return std::unique_ptr<IteratorBase>(new SequentialInterleaveIterator(
        ctx, stats, std::move(input), device, remote_nic_.get(), shape_));
  }
  return std::unique_ptr<IteratorBase>(new ParallelInterleaveIterator(
      ctx, stats, std::move(input), device, remote_nic_.get(),
      shape_.parallelism));
}

StatusOr<DatasetPtr> MakeReader(NodeDef def, std::vector<DatasetPtr> inputs,
                                PipelineContext* ctx, ReaderShape shape,
                                std::unique_ptr<StorageDevice> remote_nic) {
  if (ctx->fs == nullptr) {
    return FailedPreconditionError(def.op + " requires a filesystem");
  }
  return DatasetPtr(new InterleaveDataset(std::move(def), std::move(inputs),
                                          shape, std::move(remote_nic)));
}

}  // namespace

StatusOr<DatasetPtr> MakeTfRecordReader(NodeDef def,
                                        std::vector<DatasetPtr> inputs,
                                        PipelineContext* ctx) {
  return MakeReader(std::move(def), std::move(inputs), ctx, ReaderShape{},
                    nullptr);
}

StatusOr<DatasetPtr> MakeRemoteReader(NodeDef def,
                                      std::vector<DatasetPtr> inputs,
                                      PipelineContext* ctx) {
  DeviceSpec remote;
  remote.name = "remote";
  remote.max_bandwidth = def.GetDouble(kAttrRemoteNicBandwidth, 0);
  remote.read_latency_s = def.GetDouble(kAttrRemoteNicLatency, 0);
  return MakeReader(std::move(def), std::move(inputs), ctx, ReaderShape{},
                    std::make_unique<StorageDevice>(remote));
}

StatusOr<DatasetPtr> MakeInterleaveReader(NodeDef def,
                                          std::vector<DatasetPtr> inputs,
                                          PipelineContext* ctx) {
  ReaderShape shape;
  shape.cycle_length = static_cast<int>(def.GetInt(kAttrCycleLength, 4));
  shape.block_length = static_cast<int>(def.GetInt(kAttrBlockLength, 1));
  shape.parallelism = static_cast<int>(def.GetInt(kAttrParallelism, 1));
  return MakeReader(std::move(def), std::move(inputs), ctx, shape, nullptr);
}

}  // namespace plumber
