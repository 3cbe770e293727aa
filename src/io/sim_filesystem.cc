#include "src/io/sim_filesystem.h"

#include <algorithm>

#include "src/util/busy_work.h"
#include "src/util/rng.h"

namespace plumber {

uint64_t SimFileMeta::TotalBytes() const {
  if (record_payload_sizes.empty()) return raw_size;
  uint64_t total = 0;
  for (uint64_t s : record_payload_sizes) total += s + kRecordFramingBytes;
  return total;
}

RecordReader::RecordReader(const SimFileMeta* meta, SimFilesystem* fs,
                           std::unique_ptr<ReadStream> stream)
    : meta_(meta), fs_(fs), stream_(std::move(stream)) {}

Status RecordReader::ReadRecord(std::vector<uint8_t>* payload, bool* end) {
  if (next_record_ >= meta_->NumRecords()) {
    *end = true;
    return OkStatus();
  }
  *end = false;
  const uint64_t payload_size = meta_->record_payload_sizes[next_record_];
  const uint64_t disk_bytes = payload_size + kRecordFramingBytes;
  if (stream_) stream_->Charge(disk_bytes);
  // Payload content is deterministic in (file seed, record index).
  FillDeterministicBytes(SplitMix64(meta_->seed ^ (next_record_ + 1)),
                         payload_size, payload);
  ++next_record_;
  fs_->RecordRead(meta_->name, disk_bytes,
                  /*fully_read=*/next_record_ == meta_->NumRecords());
  return OkStatus();
}

RawReader::RawReader(const SimFileMeta* meta, SimFilesystem* fs,
                     std::unique_ptr<ReadStream> stream)
    : meta_(meta), fs_(fs), stream_(std::move(stream)) {}

uint64_t RawReader::Read(uint64_t n, bool loop) {
  const uint64_t size = meta_->TotalBytes();
  if (offset_ >= size) {
    if (!loop) return 0;
    offset_ = 0;
  }
  const uint64_t take = std::min(n, size - offset_);
  if (stream_) stream_->Charge(take);
  offset_ += take;
  fs_->RecordRead(meta_->name, take, /*fully_read=*/offset_ >= size);
  return take;
}

SimFilesystem::SimFilesystem(StorageDevice* device) : device_(device) {}

Status SimFilesystem::CreateRecordFile(
    const std::string& name, uint64_t seed,
    std::vector<uint64_t> record_payload_sizes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(name)) {
    return AlreadyExistsError("file exists: " + name);
  }
  SimFileMeta meta;
  meta.name = name;
  meta.seed = seed;
  meta.record_payload_sizes = std::move(record_payload_sizes);
  files_.emplace(name, std::move(meta));
  return OkStatus();
}

Status SimFilesystem::CreateRawFile(const std::string& name, uint64_t seed,
                                    uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(name)) {
    return AlreadyExistsError("file exists: " + name);
  }
  SimFileMeta meta;
  meta.name = name;
  meta.seed = seed;
  meta.raw_size = size;
  files_.emplace(name, std::move(meta));
  return OkStatus();
}

const SimFileMeta* SimFilesystem::FindMeta(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

std::vector<std::string> SimFilesystem::List(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

StatusOr<std::unique_ptr<RecordReader>> SimFilesystem::OpenRecord(
    const std::string& name) {
  return OpenRecord(name, device_);
}

StatusOr<std::unique_ptr<RecordReader>> SimFilesystem::OpenRecord(
    const std::string& name, StorageDevice* device) {
  const SimFileMeta* meta = FindMeta(name);
  if (meta == nullptr) return NotFoundError("no such file: " + name);
  std::unique_ptr<ReadStream> stream;
  if (device != nullptr) stream = device->OpenStream();
  return std::make_unique<RecordReader>(meta, this, std::move(stream));
}

StatusOr<std::unique_ptr<RawReader>> SimFilesystem::OpenRaw(
    const std::string& name) {
  const SimFileMeta* meta = FindMeta(name);
  if (meta == nullptr) return NotFoundError("no such file: " + name);
  std::unique_ptr<ReadStream> stream;
  if (device_ != nullptr) stream = device_->OpenStream();
  return std::make_unique<RawReader>(meta, this, std::move(stream));
}

void SimFilesystem::RecordRead(const std::string& name, uint64_t bytes,
                               bool fully_read) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = read_log_[name];
  entry.bytes_read += bytes;
  if (entry.file_size == 0) {
    auto it = files_.find(name);
    if (it != files_.end()) entry.file_size = it->second.TotalBytes();
  }
  entry.fully_read = entry.fully_read || fully_read;
  total_bytes_read_ += bytes;
}

std::map<std::string, FileReadEntry> SimFilesystem::SnapshotReadLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_log_;
}

void SimFilesystem::ClearReadLog() {
  std::lock_guard<std::mutex> lock(mu_);
  read_log_.clear();
  total_bytes_read_ = 0;
}

uint64_t SimFilesystem::total_bytes_read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_read_;
}

}  // namespace plumber
