// An in-memory simulated filesystem of record-structured files.
//
// Files are described by metadata (per-record payload sizes plus a seed)
// rather than materialized bytes: readers regenerate payload bytes
// deterministically on demand, while every read is charged against the
// attached StorageDevice and logged in the filesystem-wide ReadLog.
// The ReadLog is exactly the "system-wide map tracking filename to bytes
// used" that Plumber's cache-size estimator consumes (paper §4.4/App. A).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/io/storage_device.h"
#include "src/util/status.h"

namespace plumber {

// Framing overhead per record (length prefix + checksum), mimicking the
// TFRecord on-disk format (8-byte length + 4-byte masked crc x2).
inline constexpr uint64_t kRecordFramingBytes = 16;

struct SimFileMeta {
  std::string name;
  uint64_t seed = 0;
  std::vector<uint64_t> record_payload_sizes;
  // Total on-disk size: payloads + framing. Raw (record-less) files have
  // record_payload_sizes empty and raw_size set.
  uint64_t raw_size = 0;

  uint64_t TotalBytes() const;
  uint64_t NumRecords() const { return record_payload_sizes.size(); }
};

// Per-file read accounting; Plumber's tracer snapshots this.
struct FileReadEntry {
  uint64_t bytes_read = 0;
  uint64_t file_size = 0;
  bool fully_read = false;
};

class SimFilesystem;

// Sequential reader over a record file. Not thread-safe; each reader is
// owned by one worker.
class RecordReader {
 public:
  RecordReader(const SimFileMeta* meta, SimFilesystem* fs,
               std::unique_ptr<ReadStream> stream);

  // Reads the next record payload. Sets *end=true at end of file.
  Status ReadRecord(std::vector<uint8_t>* payload, bool* end);

 private:
  const SimFileMeta* meta_;
  SimFilesystem* fs_;
  std::unique_ptr<ReadStream> stream_;
  uint64_t next_record_ = 0;
};

// Sequential raw byte reader (used by the I/O profiler).
class RawReader {
 public:
  RawReader(const SimFileMeta* meta, SimFilesystem* fs,
            std::unique_ptr<ReadStream> stream);

  // Reads up to n bytes; returns bytes read (0 at EOF). Wraps around if
  // `loop` is set (for open-ended bandwidth probes).
  uint64_t Read(uint64_t n, bool loop = false);

 private:
  const SimFileMeta* meta_;
  SimFilesystem* fs_;
  std::unique_ptr<ReadStream> stream_;
  uint64_t offset_ = 0;
};

class SimFilesystem {
 public:
  // The filesystem does not own the device; pass nullptr for unlimited
  // I/O with no accounting against a device.
  explicit SimFilesystem(StorageDevice* device = nullptr);

  // Registers a record file whose payload sizes are drawn by the caller.
  Status CreateRecordFile(const std::string& name, uint64_t seed,
                          std::vector<uint64_t> record_payload_sizes);

  // Registers a raw file of `size` bytes.
  Status CreateRawFile(const std::string& name, uint64_t seed, uint64_t size);

  const SimFileMeta* FindMeta(const std::string& name) const;

  // Lexicographically sorted names matching the prefix.
  std::vector<std::string> List(const std::string& prefix) const;

  StatusOr<std::unique_ptr<RecordReader>> OpenRecord(const std::string& name);
  // Opens a reader charged against `device` instead of the
  // filesystem's attached device (nullptr = unmetered). Sharded
  // sources use this to meter each shard against its own modeled disk.
  StatusOr<std::unique_ptr<RecordReader>> OpenRecord(const std::string& name,
                                                     StorageDevice* device);
  StatusOr<std::unique_ptr<RawReader>> OpenRaw(const std::string& name);

  StorageDevice* device() const { return device_; }
  void set_device(StorageDevice* device) { device_ = device; }

  // -- Read log (Plumber tracing hook) ------------------------------
  void RecordRead(const std::string& name, uint64_t bytes, bool fully_read);
  std::map<std::string, FileReadEntry> SnapshotReadLog() const;
  void ClearReadLog();
  uint64_t total_bytes_read() const;

 private:
  StorageDevice* device_;
  mutable std::mutex mu_;
  std::map<std::string, SimFileMeta> files_;
  std::map<std::string, FileReadEntry> read_log_;
  uint64_t total_bytes_read_ = 0;
};

}  // namespace plumber
