#include "src/io/storage_device.h"

#include <chrono>
#include <thread>

#include "src/util/cpu_timer.h"

namespace plumber {

DeviceSpec DeviceSpec::Unlimited() { return DeviceSpec{}; }

DeviceSpec DeviceSpec::Hdd() {
  DeviceSpec s;
  s.name = "hdd";
  s.max_bandwidth = 180e6;
  s.read_latency_s = 4e-3 / 1000;  // amortized seek cost per read
  return s;
}

DeviceSpec DeviceSpec::NvmeSsd() {
  DeviceSpec s;
  s.name = "nvme";
  s.max_bandwidth = 2e9;
  s.read_latency_s = 0;
  return s;
}

DeviceSpec DeviceSpec::CloudStorage(double aggregate, double per_stream) {
  DeviceSpec s;
  s.name = "cloud";
  s.max_bandwidth = aggregate;
  s.per_stream_bandwidth = per_stream;
  s.read_latency_s = 0;
  return s;
}

DeviceSpec DeviceSpec::TokenBucketLimit(double bytes_per_sec) {
  DeviceSpec s;
  s.name = "token_bucket";
  s.max_bandwidth = bytes_per_sec;
  return s;
}

DeviceSpec DeviceSpec::Gigabit() {
  DeviceSpec s;
  s.name = "1gbe";
  s.max_bandwidth = 125e6;
  s.read_latency_s = 100e-6;
  return s;
}

DeviceSpec DeviceSpec::TenGigabit() {
  DeviceSpec s;
  s.name = "10gbe";
  s.max_bandwidth = 1.25e9;
  s.read_latency_s = 50e-6;
  return s;
}

ReadStream::ReadStream(StorageDevice* device) : device_(device) {
  if (device_->spec().per_stream_bandwidth > 0) {
    // Small burst (20ms of tokens) so short-lived probes measure the
    // sustained rate, not the bucket's initial fill.
    stream_bucket_ = std::make_unique<TokenBucket>(
        device_->spec().per_stream_bandwidth,
        device_->spec().per_stream_bandwidth * 0.02);
  }
}

void ReadStream::Charge(uint64_t bytes) {
  if (stream_bucket_) stream_bucket_->Acquire(static_cast<double>(bytes));
  device_->Charge(bytes);
}

StorageDevice::StorageDevice(DeviceSpec spec)
    : spec_(std::move(spec)),
      global_bucket_(spec_.max_bandwidth, spec_.max_bandwidth * 0.02) {}

std::unique_ptr<ReadStream> StorageDevice::OpenStream() {
  return std::make_unique<ReadStream>(this);
}

void StorageDevice::ResetCounters() {
  total_bytes_.store(0, std::memory_order_relaxed);
  total_reads_.store(0, std::memory_order_relaxed);
}

StorageDevice* ShardDevicePool::DeviceFor(int index) {
  if (index < 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  while (devices_.size() <= static_cast<size_t>(index)) {
    devices_.push_back(std::make_unique<StorageDevice>(spec_));
  }
  return devices_[static_cast<size_t>(index)].get();
}

int ShardDevicePool::num_devices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(devices_.size());
}

void StorageDevice::Charge(uint64_t bytes) {
  if (spec_.read_latency_s > 0) {
    BlockedRegion blocked;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(spec_.read_latency_s));
  }
  global_bucket_.Acquire(static_cast<double>(bytes));
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  total_reads_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace plumber
