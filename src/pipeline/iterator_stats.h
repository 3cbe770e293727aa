// Per-iterator runtime statistics and producer-attributed CPU timing.
//
// This is the tracing half of Plumber (paper §4.1): every iterator
// counts elements produced, bytes produced, consumptions from children,
// and active thread-CPU nanoseconds. CPU attribution follows the
// paper's rule — "CPU timers stop when Datasets call into their
// children and start when control is returned" — implemented with a
// thread-local stack of accounting scopes: entering a child scope
// charges the elapsed thread-CPU delta to the parent and re-marks.
//
// The hot counters are sharded: each writer thread lands on one of
// kStatShards cache-line-aligned slots (assigned round-robin per
// thread), so N parallel-map workers bumping the same node's counters
// never contend on a shared cache line. Readers aggregate across
// shards; sums are exact (every increment lands in exactly one shard),
// which keeps the LP planner's inputs consistent.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace plumber {

namespace internal {
// Stable per-thread shard slot, assigned round-robin on first use so
// worker pools spread evenly across shards.
size_t ThreadStatShard();
}  // namespace internal

inline constexpr size_t kStatShards = 16;  // power of two

class IteratorStats {
 public:
  explicit IteratorStats(std::string name, std::string op)
      : name_(std::move(name)), op_(std::move(op)) {}

  const std::string& name() const { return name_; }
  const std::string& op() const { return op_; }

  void RecordProduced(uint64_t bytes) { RecordProducedBatch(1, bytes); }
  // One counter bump for a whole multi-element claim.
  void RecordProducedBatch(uint64_t count, uint64_t bytes) {
    Shard& s = LocalShard();
    s.elements_produced.fetch_add(count, std::memory_order_relaxed);
    s.bytes_produced.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordConsumed() { RecordConsumedBatch(1); }
  void RecordConsumedBatch(uint64_t count) {
    LocalShard().elements_consumed.fetch_add(count,
                                             std::memory_order_relaxed);
  }
  // One worker-pool claim handed off to the pool's output edge. For the
  // parallel map, prefetch and shard_merge, elements_consumed / claims
  // is the mean claim; interleave hands off records, so there
  // elements_produced / claims is.
  void RecordClaim() {
    LocalShard().claims.fetch_add(1, std::memory_order_relaxed);
  }
  void AddCpuNanos(int64_t ns) {
    if (ns > 0) LocalShard().cpu_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddBytesRead(uint64_t bytes) {
    LocalShard().bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  }
  // Bytes this iterator moved across the modeled network (remote_read).
  void AddNetworkBytes(uint64_t bytes) {
    LocalShard().network_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void SetParallelism(int p) {
    parallelism_.store(p, std::memory_order_relaxed);
  }
  void SetUdfName(std::string udf) {
    std::lock_guard<std::mutex> lock(mu_);
    udf_name_ = std::move(udf);
  }
  void RecordQueueEmptyFraction(double f) {
    queue_empty_fraction_.store(f, std::memory_order_relaxed);
  }

  uint64_t elements_produced() const {
    return Sum(&Shard::elements_produced);
  }
  uint64_t elements_consumed() const {
    return Sum(&Shard::elements_consumed);
  }
  uint64_t bytes_produced() const { return Sum(&Shard::bytes_produced); }
  uint64_t bytes_read() const { return Sum(&Shard::bytes_read); }
  uint64_t network_bytes() const { return Sum(&Shard::network_bytes); }
  uint64_t claims() const { return Sum(&Shard::claims); }
  int64_t cpu_ns() const { return SumSigned(&Shard::cpu_ns); }
  int parallelism() const {
    return parallelism_.load(std::memory_order_relaxed);
  }
  std::string udf_name() const {
    std::lock_guard<std::mutex> lock(mu_);
    return udf_name_;
  }
  double queue_empty_fraction() const {
    return queue_empty_fraction_.load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  // One cache line per shard: seven 8-byte counters, padded to 64
  // bytes by the alignment.
  struct alignas(64) Shard {
    std::atomic<uint64_t> elements_produced{0};
    std::atomic<uint64_t> elements_consumed{0};
    std::atomic<uint64_t> bytes_produced{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> network_bytes{0};
    std::atomic<uint64_t> claims{0};
    std::atomic<int64_t> cpu_ns{0};
  };
  static_assert(sizeof(Shard) == 64, "one cache line per shard");

  Shard& LocalShard() {
    return shards_[internal::ThreadStatShard() & (kStatShards - 1)];
  }
  uint64_t Sum(std::atomic<uint64_t> Shard::*field) const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += (s.*field).load(std::memory_order_relaxed);
    }
    return total;
  }
  int64_t SumSigned(std::atomic<int64_t> Shard::*field) const {
    int64_t total = 0;
    for (const Shard& s : shards_) {
      total += (s.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string name_;
  const std::string op_;
  Shard shards_[kStatShards];
  std::atomic<int> parallelism_{1};
  std::atomic<double> queue_empty_fraction_{0};
  mutable std::mutex mu_;
  std::string udf_name_;
};

// Immutable copy of one iterator's counters; the tracer works on these.
struct IteratorStatsSnapshot {
  std::string name;
  std::string op;
  uint64_t elements_produced = 0;
  uint64_t elements_consumed = 0;
  uint64_t bytes_produced = 0;
  uint64_t bytes_read = 0;
  uint64_t network_bytes = 0;
  int64_t cpu_ns = 0;
  int parallelism = 1;
  std::string udf_name;
  double queue_empty_fraction = 0;
};

class StatsRegistry {
 public:
  // Returns the stats object for `name`, creating it if needed.
  IteratorStats* GetOrCreate(const std::string& name, const std::string& op);
  IteratorStats* Find(const std::string& name) const;

  std::vector<IteratorStatsSnapshot> Snapshot() const;
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<IteratorStats>> stats_;
};

// RAII accounting scope. While a scope for stats S is on top of the
// calling thread's stack, elapsed thread-CPU time is charged to S.
class CpuAccountingScope {
 public:
  explicit CpuAccountingScope(IteratorStats* stats);
  ~CpuAccountingScope();

  CpuAccountingScope(const CpuAccountingScope&) = delete;
  CpuAccountingScope& operator=(const CpuAccountingScope&) = delete;
};

}  // namespace plumber
