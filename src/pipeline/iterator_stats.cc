#include "src/pipeline/iterator_stats.h"

#include "src/util/cpu_timer.h"

namespace plumber {
namespace internal {

size_t ThreadStatShard() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace internal

void IteratorStats::Reset() {
  for (Shard& s : shards_) {
    s.elements_produced.store(0, std::memory_order_relaxed);
    s.elements_consumed.store(0, std::memory_order_relaxed);
    s.bytes_produced.store(0, std::memory_order_relaxed);
    s.bytes_read.store(0, std::memory_order_relaxed);
    s.network_bytes.store(0, std::memory_order_relaxed);
    s.claims.store(0, std::memory_order_relaxed);
    s.cpu_ns.store(0, std::memory_order_relaxed);
  }
  queue_empty_fraction_.store(0, std::memory_order_relaxed);
}

IteratorStats* StatsRegistry::GetOrCreate(const std::string& name,
                                          const std::string& op) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(name);
  if (it == stats_.end()) {
    it = stats_.emplace(name, std::make_unique<IteratorStats>(name, op))
             .first;
  }
  return it->second.get();
}

IteratorStats* StatsRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : it->second.get();
}

std::vector<IteratorStatsSnapshot> StatsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<IteratorStatsSnapshot> out;
  out.reserve(stats_.size());
  for (const auto& [name, s] : stats_) {
    IteratorStatsSnapshot snap;
    snap.name = s->name();
    snap.op = s->op();
    snap.elements_produced = s->elements_produced();
    snap.elements_consumed = s->elements_consumed();
    snap.bytes_produced = s->bytes_produced();
    snap.bytes_read = s->bytes_read();
    snap.network_bytes = s->network_bytes();
    snap.cpu_ns = s->cpu_ns();
    snap.parallelism = s->parallelism();
    snap.udf_name = s->udf_name();
    snap.queue_empty_fraction = s->queue_empty_fraction();
    out.push_back(std::move(snap));
  }
  return out;
}

void StatsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, s] : stats_) s->Reset();
}

namespace {

struct AccountingState {
  std::vector<IteratorStats*> stack;
  int64_t last_mark = 0;
};

thread_local AccountingState t_accounting;

}  // namespace

CpuAccountingScope::CpuAccountingScope(IteratorStats* stats) {
  auto& state = t_accounting;
  const int64_t now = ThreadVirtualCpuNanos();
  if (!state.stack.empty()) {
    state.stack.back()->AddCpuNanos(now - state.last_mark);
  }
  state.stack.push_back(stats);
  state.last_mark = now;
}

CpuAccountingScope::~CpuAccountingScope() {
  auto& state = t_accounting;
  const int64_t now = ThreadVirtualCpuNanos();
  if (!state.stack.empty()) {
    state.stack.back()->AddCpuNanos(now - state.last_mark);
    state.stack.pop_back();
  }
  state.last_mark = now;
}

}  // namespace plumber
