// Source operators: range, file_list, tfrecord.
#include <atomic>

#include "src/pipeline/ops.h"
#include "src/util/buffer_pool.h"
#include "src/util/busy_work.h"
#include "src/util/rng.h"

namespace plumber {
namespace {

// ---------------------------------------------------------------- range
class RangeDataset : public DatasetBase {
 public:
  RangeDataset(NodeDef def) : DatasetBase(std::move(def), {}) {
    count_ = def_.GetInt(kAttrCount, -1);
  }

  int64_t Cardinality() const override {
    return count_ < 0 ? kInfiniteCardinality : count_;
  }

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

 private:
  int64_t count_;
};

class RangeIterator : public IteratorBase {
 public:
  RangeIterator(PipelineContext* ctx, IteratorStats* stats, int64_t count)
      : IteratorBase(ctx, stats), count_(count) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    if (count_ >= 0 && next_ >= count_) {
      *end = true;
      return OkStatus();
    }
    *end = false;
    // Range is the head of every synthetic hot path: recycle the
    // 8-byte counter buffers instead of allocating one per element.
    Buffer b = BufferPool::Get()->Acquire(sizeof(int64_t));
    const int64_t v = next_;
    for (size_t i = 0; i < sizeof(int64_t); ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    *out = Element::FromBuffer(std::move(b), static_cast<uint64_t>(next_));
    ++next_;
    return OkStatus();
  }

 private:
  const int64_t count_;
  int64_t next_ = 0;
};

StatusOr<std::unique_ptr<IteratorBase>> RangeDataset::MakeIterator(
    PipelineContext* ctx) const {
  return std::unique_ptr<IteratorBase>(
      new RangeIterator(ctx, StatsFor(ctx), count_));
}

// ------------------------------------------------------------ file_list
class FileListDataset : public DatasetBase {
 public:
  FileListDataset(NodeDef def, PipelineContext* ctx)
      : DatasetBase(std::move(def), {}) {
    files_ = ctx->fs->List(def_.GetString(kAttrPrefix));
    // Shard-stamped lists (rewriter::ShardSource) keep only their
    // round-robin partition; the shards' partitions are disjoint and
    // their union is the full list, so a shard_merge over all shards
    // reproduces exactly the unsharded element multiset.
    const int64_t shards = def_.GetInt(kAttrShardCount, 1);
    const int64_t index = def_.GetInt(kAttrShardIndex, 0);
    if (shards > 1) {
      std::vector<std::string> mine;
      for (size_t i = 0; i < files_.size(); ++i) {
        if (static_cast<int64_t>(i) % shards == index) {
          mine.push_back(files_[i]);
        }
      }
      files_ = std::move(mine);
    }
  }

  int64_t Cardinality() const override {
    return static_cast<int64_t>(files_.size());
  }

  const std::vector<std::string>& files() const { return files_; }

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

 private:
  std::vector<std::string> files_;
};

class FileListIterator : public IteratorBase {
 public:
  FileListIterator(PipelineContext* ctx, IteratorStats* stats,
                   const std::vector<std::string>* files)
      : IteratorBase(ctx, stats), files_(files) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    if (next_ >= files_->size()) {
      *end = true;
      return OkStatus();
    }
    *end = false;
    const std::string& name = (*files_)[next_];
    Buffer b(name.begin(), name.end());
    *out = Element::FromBuffer(std::move(b), next_);
    ++next_;
    return OkStatus();
  }

 private:
  const std::vector<std::string>* files_;
  size_t next_ = 0;
};

StatusOr<std::unique_ptr<IteratorBase>> FileListDataset::MakeIterator(
    PipelineContext* ctx) const {
  return std::unique_ptr<IteratorBase>(
      new FileListIterator(ctx, StatsFor(ctx), &files_));
}

// -------------------------------------------------------------- tfrecord
// Sequential reader over the files produced by a file_list child: pulls
// a filename, streams its records, then moves to the next file.
class TfRecordDataset : public DatasetBase {
 public:
  TfRecordDataset(NodeDef def, std::vector<DatasetPtr> inputs,
                  PipelineContext* ctx)
      : DatasetBase(std::move(def), std::move(inputs)) {
    // Cardinality = total records across the child's files, known from
    // filesystem metadata (used as ground truth in tests).
    if (auto* fl = dynamic_cast<const FileListDataset*>(inputs_[0].get())) {
      int64_t total = 0;
      for (const auto& f : fl->files()) {
        const SimFileMeta* meta = ctx->fs->FindMeta(f);
        if (meta == nullptr) {
          total = kUnknownCardinality;
          break;
        }
        total += static_cast<int64_t>(meta->NumRecords());
      }
      cardinality_ = total;
    }
  }

  int64_t Cardinality() const override { return cardinality_; }

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

 private:
  int64_t cardinality_ = kUnknownCardinality;
};

class TfRecordIterator : public IteratorBase {
 public:
  TfRecordIterator(PipelineContext* ctx, IteratorStats* stats,
                   std::unique_ptr<IteratorBase> input,
                   StorageDevice* shard_device)
      : IteratorBase(ctx, stats), input_(std::move(input)),
        shard_device_(shard_device) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      if (reader_ == nullptr) {
        Element filename_elem;
        bool files_end = false;
        RETURN_IF_ERROR(input_->GetNext(&filename_elem, &files_end));
        if (files_end) {
          *end = true;
          return OkStatus();
        }
        stats_->RecordConsumed();
        const std::string name(filename_elem.components[0].begin(),
                               filename_elem.components[0].end());
        if (shard_device_ != nullptr) {
          ASSIGN_OR_RETURN(reader_, ctx_->fs->OpenRecord(name, shard_device_));
        } else {
          ASSIGN_OR_RETURN(reader_, ctx_->fs->OpenRecord(name));
        }
      }
      // Acquire at the previous record's size: records in a file are
      // near-uniform, so ReadRecord's resize stays within capacity and
      // the per-record allocation disappears in steady state.
      Buffer payload = BufferPool::Get()->Acquire(last_payload_bytes_);
      bool file_end = false;
      RETURN_IF_ERROR(reader_->ReadRecord(&payload, &file_end));
      if (file_end) {
        BufferPool::Get()->Release(std::move(payload));
        reader_.reset();
        continue;
      }
      last_payload_bytes_ = payload.size();
      stats_->AddBytesRead(payload.size() + kRecordFramingBytes);
      *out = Element::FromBuffer(std::move(payload), sequence_++);
      *end = false;
      return OkStatus();
    }
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  StorageDevice* shard_device_;  // null = the filesystem's device
  std::unique_ptr<RecordReader> reader_;
  uint64_t sequence_ = 0;
  size_t last_payload_bytes_ = 64;
};

StatusOr<std::unique_ptr<IteratorBase>> TfRecordDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  StorageDevice* shard_device = ShardDeviceFor(def_, ctx);
  if (shard_device == nullptr) {
    shard_device = ShardDeviceFor(inputs_[0]->def(), ctx);
  }
  return std::unique_ptr<IteratorBase>(new TfRecordIterator(
      ctx, StatsFor(ctx), std::move(input), shard_device));
}

// ----------------------------------------------------------- remote_read
// Like tfrecord, but the files live on a remote host: every record's
// bytes are metered through the remote host's storage device (the
// filesystem/shard device, exactly as a local read would be), then
// through the remote host's NIC (a StorageDevice owned by the dataset,
// modeled from the node's remote-NIC attrs: bandwidth, and latency per
// transfer), then through this host's NIC (ctx->nic). Element content
// and order are identical to a local tfrecord read — the network model
// only adds time and accounting.
class RemoteReadDataset : public DatasetBase {
 public:
  RemoteReadDataset(NodeDef def, std::vector<DatasetPtr> inputs,
                    PipelineContext* ctx)
      : DatasetBase(std::move(def), std::move(inputs)) {
    DeviceSpec remote;
    remote.name = "remote";
    remote.max_bandwidth = def_.GetDouble(kAttrRemoteNicBandwidth, 0);
    remote.read_latency_s = def_.GetDouble(kAttrRemoteNicLatency, 0);
    remote_nic_ = std::make_unique<StorageDevice>(remote);
    if (auto* fl = dynamic_cast<const FileListDataset*>(inputs_[0].get())) {
      int64_t total = 0;
      for (const auto& f : fl->files()) {
        const SimFileMeta* meta = ctx->fs->FindMeta(f);
        if (meta == nullptr) {
          total = kUnknownCardinality;
          break;
        }
        total += static_cast<int64_t>(meta->NumRecords());
      }
      cardinality_ = total;
    }
  }

  int64_t Cardinality() const override { return cardinality_; }

  StatusOr<std::unique_ptr<IteratorBase>> MakeIterator(
      PipelineContext* ctx) const override;

 private:
  // The remote endpoint's NIC: shared by every iterator of this dataset
  // (all readers of one remote source contend for one remote uplink).
  std::unique_ptr<StorageDevice> remote_nic_;
  int64_t cardinality_ = kUnknownCardinality;
};

class RemoteReadIterator : public IteratorBase {
 public:
  RemoteReadIterator(PipelineContext* ctx, IteratorStats* stats,
                     std::unique_ptr<IteratorBase> input,
                     StorageDevice* shard_device, StorageDevice* remote_nic)
      : IteratorBase(ctx, stats), input_(std::move(input)),
        shard_device_(shard_device), remote_nic_(remote_nic) {}

 protected:
  Status GetNextInternal(Element* out, bool* end) override {
    for (;;) {
      if (reader_ == nullptr) {
        Element filename_elem;
        bool files_end = false;
        RETURN_IF_ERROR(input_->GetNext(&filename_elem, &files_end));
        if (files_end) {
          *end = true;
          return OkStatus();
        }
        stats_->RecordConsumed();
        const std::string name(filename_elem.components[0].begin(),
                               filename_elem.components[0].end());
        if (shard_device_ != nullptr) {
          ASSIGN_OR_RETURN(reader_, ctx_->fs->OpenRecord(name, shard_device_));
        } else {
          ASSIGN_OR_RETURN(reader_, ctx_->fs->OpenRecord(name));
        }
      }
      Buffer payload = BufferPool::Get()->Acquire(last_payload_bytes_);
      bool file_end = false;
      RETURN_IF_ERROR(reader_->ReadRecord(&payload, &file_end));
      if (file_end) {
        BufferPool::Get()->Release(std::move(payload));
        reader_.reset();
        continue;
      }
      last_payload_bytes_ = payload.size();
      const uint64_t wire_bytes = payload.size() + kRecordFramingBytes;
      stats_->AddBytesRead(wire_bytes);
      // The record crosses the wire once; both endpoints' NICs carry it.
      remote_nic_->Charge(wire_bytes);
      if (ctx_->nic != nullptr) ctx_->nic->Charge(wire_bytes);
      stats_->AddNetworkBytes(wire_bytes);
      *out = Element::FromBuffer(std::move(payload), sequence_++);
      *end = false;
      return OkStatus();
    }
  }

 private:
  std::unique_ptr<IteratorBase> input_;
  StorageDevice* shard_device_;  // null = the filesystem's device
  StorageDevice* remote_nic_;
  std::unique_ptr<RecordReader> reader_;
  uint64_t sequence_ = 0;
  size_t last_payload_bytes_ = 64;
};

StatusOr<std::unique_ptr<IteratorBase>> RemoteReadDataset::MakeIterator(
    PipelineContext* ctx) const {
  ASSIGN_OR_RETURN(auto input, inputs_[0]->MakeIterator(ctx));
  StorageDevice* shard_device = ShardDeviceFor(def_, ctx);
  if (shard_device == nullptr) {
    shard_device = ShardDeviceFor(inputs_[0]->def(), ctx);
  }
  return std::unique_ptr<IteratorBase>(
      new RemoteReadIterator(ctx, StatsFor(ctx), std::move(input),
                             shard_device, remote_nic_.get()));
}

}  // namespace

StatusOr<DatasetPtr> MakeRangeDataset(NodeDef def,
                                      std::vector<DatasetPtr> inputs,
                                      PipelineContext* ctx) {
  (void)ctx;
  if (!inputs.empty()) return InvalidArgumentError("range takes no inputs");
  return DatasetPtr(new RangeDataset(std::move(def)));
}

StatusOr<DatasetPtr> MakeFileListDataset(NodeDef def,
                                         std::vector<DatasetPtr> inputs,
                                         PipelineContext* ctx) {
  if (!inputs.empty()) {
    return InvalidArgumentError("file_list takes no inputs");
  }
  if (ctx->fs == nullptr) {
    return FailedPreconditionError("file_list requires a filesystem");
  }
  return DatasetPtr(new FileListDataset(std::move(def), ctx));
}

StatusOr<DatasetPtr> MakeTfRecordDataset(NodeDef def,
                                         std::vector<DatasetPtr> inputs,
                                         PipelineContext* ctx) {
  if (inputs.size() != 1) {
    return InvalidArgumentError("tfrecord takes one input");
  }
  if (ctx->fs == nullptr) {
    return FailedPreconditionError("tfrecord requires a filesystem");
  }
  return DatasetPtr(
      new TfRecordDataset(std::move(def), std::move(inputs), ctx));
}

StatusOr<DatasetPtr> MakeRemoteReadDataset(NodeDef def,
                                           std::vector<DatasetPtr> inputs,
                                           PipelineContext* ctx) {
  if (inputs.size() != 1) {
    return InvalidArgumentError("remote_read takes one input");
  }
  if (ctx->fs == nullptr) {
    return FailedPreconditionError("remote_read requires a filesystem");
  }
  return DatasetPtr(
      new RemoteReadDataset(std::move(def), std::move(inputs), ctx));
}

}  // namespace plumber
