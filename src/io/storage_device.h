// Simulated storage devices and NICs.
//
// A StorageDevice models the bandwidth behaviour the paper evaluates
// against: a device-wide bandwidth cap (HDD ~180MB/s, NVMe ~2GB/s, or a
// token-bucket-limited sweep), an optional per-stream cap (cloud object
// stores serve each connection at a fraction of aggregate bandwidth, so
// read parallelism matters), and a fixed per-read latency.
//
// A host NIC is the same resource with a per-transfer latency and no
// per-stream cap (the Gigabit and TenGigabit presets), charged directly
// through Charge(): remote_read charges every record through both
// endpoints' NICs, and fleet work stealing the migrated program.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/io/token_bucket.h"

namespace plumber {

struct DeviceSpec {
  std::string name = "unlimited";
  // Aggregate bandwidth cap in bytes/sec; 0 = unlimited.
  double max_bandwidth = 0;
  // Per-stream bandwidth cap in bytes/sec; 0 = no per-stream cap.
  double per_stream_bandwidth = 0;
  // Fixed latency charged per read call (per transfer, on a NIC),
  // seconds.
  double read_latency_s = 0;

  // Unlimited device: charges are free and only counted (the default,
  // so machines without a device model behave as if there were none).
  static DeviceSpec Unlimited();
  static DeviceSpec Hdd();           // ~180 MB/s sequential
  static DeviceSpec NvmeSsd();       // ~2 GB/s
  static DeviceSpec CloudStorage(double aggregate, double per_stream);
  static DeviceSpec TokenBucketLimit(double bytes_per_sec);
  // NICs: ~125 MB/s commodity gigabit Ethernet and ~1.25 GB/s
  // datacenter 10GbE.
  static DeviceSpec Gigabit();
  static DeviceSpec TenGigabit();
};

// One logical read stream (e.g. one open file being read by one
// interleave worker). Owns the per-stream limiter.
class ReadStream {
 public:
  explicit ReadStream(class StorageDevice* device);

  // Blocks to charge `bytes` of I/O against both the per-stream and the
  // device-wide limiter, then accounts it.
  void Charge(uint64_t bytes);

 private:
  StorageDevice* device_;
  std::unique_ptr<TokenBucket> stream_bucket_;  // null if uncapped
};

class StorageDevice {
 public:
  explicit StorageDevice(DeviceSpec spec);

  std::unique_ptr<ReadStream> OpenStream();

  const DeviceSpec& spec() const { return spec_; }

  // Blocks to charge `bytes` against the device: the fixed per-read
  // latency (a modeled block, excluded from CPU attribution), then the
  // device-wide token bucket, then the counters. Reads through a
  // ReadStream also pay its per-stream cap first; a NIC has none and
  // is charged here directly.
  void Charge(uint64_t bytes);

  uint64_t total_bytes_read() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t total_reads() const {
    return total_reads_.load(std::memory_order_relaxed);
  }
  void ResetCounters();

 private:
  DeviceSpec spec_;
  TokenBucket global_bucket_;
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<uint64_t> total_reads_{0};
};

// A lazily grown set of identical modeled devices, one per source
// shard: the shard_sources pass splits a source across N disks, and each
// shard must meter its reads against its *own* bandwidth cap (that is
// the whole point — N shards reach N x the single-device bandwidth).
// Thread-safe; devices live as long as the pool.
class ShardDevicePool {
 public:
  explicit ShardDevicePool(DeviceSpec spec) : spec_(std::move(spec)) {}

  // The device for shard `index` (>= 0), created on first use.
  StorageDevice* DeviceFor(int index);

  int num_devices() const;

 private:
  const DeviceSpec spec_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<StorageDevice>> devices_;
};

}  // namespace plumber
