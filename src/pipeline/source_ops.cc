// Source operators: range and file_list.
#include "src/pipeline/ops.h"
#include "src/util/buffer_pool.h"

namespace plumber {
namespace {

// ---------------------------------------------------------------- range
class RangeDataset : public DatasetBase {
 public:
  RangeDataset(NodeDef def) : DatasetBase(std::move(def), {}) {
    count_ = def_.GetInt(kAttrCount, -1);
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

}  // namespace

StatusOr<DatasetPtr> MakeRangeDataset(NodeDef def, std::vector<DatasetPtr>,
                                      PipelineContext*) {
  return DatasetPtr(new RangeDataset(std::move(def)));
}

StatusOr<DatasetPtr> MakeFileListDataset(NodeDef def,
                                         std::vector<DatasetPtr>,
                                         PipelineContext* ctx) {
  if (ctx->fs == nullptr) {
    return FailedPreconditionError("file_list requires a filesystem");
  }
  return DatasetPtr(new FileListDataset(std::move(def), ctx));
}

}  // namespace plumber
