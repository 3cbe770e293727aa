// A bounded multi-producer multi-consumer blocking queue.
//
// The MPMC implementation of Channel<T> (src/util/channel.h): the safe
// choice for edges with many workers per side, or edges the
// ParallelismGovernor can retarget above one worker. Supports
// cancellation so iterator destruction can unblock worker threads, and
// counts consumer stalls (EmptyPopFraction).
//
// Besides the one-item Push, the queue moves whole element batches per
// lock acquisition (PushBatch/PopBatch) — a worker pool's
// multi-element claims (src/pipeline/worker_pool.h), where per-element
// mutex traffic would otherwise dominate cheap UDF work at high
// parallelism; the pool deepens the bound (RaiseCapacity) as its claims
// grow. Wakeups are waiter-counted: each side tracks how many threads
// are parked, and a push/pop notifies only as many as can actually make
// progress, so a large batch doesn't stampede every sleeping worker at
// once.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/util/channel.h"
#include "src/util/cpu_timer.h"

namespace plumber {

template <typename T>
class BoundedQueue final : public Channel<T> {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  // Blocks until space is available or the queue is cancelled.
  // Returns false if cancelled.
  bool Push(T item) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cancelled_ && items_.size() >= capacity_) {
      BlockedRegion blocked;  // producer stall: not CPU work
      ++full_waiters_;
      not_full_.wait(lock,
                     [&] { return cancelled_ || items_.size() < capacity_; });
      --full_waiters_;
    }
    if (cancelled_) return false;
    items_.push_back(std::move(item));
    ++total_pushed_;
    WakeConsumers(1);
    return true;
  }

  // Pushes every item in `items`, taking the lock once per capacity
  // window instead of once per element. Blocks while full. Returns
  // false if cancelled (remaining items are dropped, matching Push).
  bool PushBatch(std::vector<T> items) override {
    if (items.empty()) return !cancelled();
    std::unique_lock<std::mutex> lock(mu_);
    size_t offset = 0;
    while (offset < items.size()) {
      if (!cancelled_ && items_.size() >= capacity_) {
        BlockedRegion blocked;  // producer stall: not CPU work
        ++full_waiters_;
        not_full_.wait(lock,
                       [&] { return cancelled_ || items_.size() < capacity_; });
        --full_waiters_;
      }
      if (cancelled_) return false;
      const size_t n =
          std::min(items.size() - offset, capacity_ - items_.size());
      for (size_t i = 0; i < n; ++i) {
        items_.push_back(std::move(items[offset + i]));
      }
      offset += n;
      total_pushed_ += n;
      WakeConsumers(n);
    }
    return true;
  }

  // Pops up to `max_items` in one lock acquisition, appending to *out.
  // Blocks until at least one item is available or the queue is
  // cancelled and drained; returns the number of items appended (0 only
  // on cancellation with an empty queue).
  size_t PopBatch(size_t max_items, std::vector<T>* out) override {
    if (max_items == 0) return 0;
    std::unique_lock<std::mutex> lock(mu_);
    const bool was_empty = items_.empty();
    if (was_empty && !cancelled_) {
      BlockedRegion blocked;  // consumer stall: not CPU work
      ++empty_waiters_;
      not_empty_.wait(lock, [&] { return cancelled_ || !items_.empty(); });
      --empty_waiters_;
    }
    const size_t n = std::min(max_items, items_.size());
    // EmptyPopFraction's denominator counts elements, so a stalled
    // batch claim must count every element it delayed — one tick per
    // batch would understate starvation by the batch size.
    if (was_empty) empty_pops_ += n > 0 ? n : 1;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    WakeProducers(n);
    return n;
  }

  // Unblocks all waiters; subsequent pushes fail, pops drain remaining
  // items then return 0.
  void Cancel() override {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool cancelled() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return cancelled_;
  }

  size_t size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }

  // Deepens the queue to `capacity` items (never shrinks it) and wakes
  // producers blocked on the old bound.
  void RaiseCapacity(size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity <= capacity_) return;
    capacity_ = capacity;
    not_full_.notify_all();
  }

  // Fraction of popped elements that found the queue empty (consumer
  // stalls).
  double EmptyPopFraction() const override {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t pops = total_pushed_ + empty_pops_;
    return pops == 0 ? 0.0 : static_cast<double>(empty_pops_) / pops;
  }

 private:
  // Wake consumers for `n` newly visible items. Called under mu_.
  // `n` items can unblock at most n consumers, and there is no point
  // notifying more threads than are actually parked — a blanket
  // notify_all stampedes every sleeping worker through the mutex just
  // to re-check a predicate most of them will fail.
  void WakeConsumers(size_t n) {
    const size_t wake = std::min(n, empty_waiters_);
    for (size_t i = 0; i < wake; ++i) not_empty_.notify_one();
  }

  // Wake producers for `n` freed slots. Called under mu_.
  void WakeProducers(size_t n) {
    const size_t wake = std::min(n, full_waiters_);
    for (size_t i = 0; i < wake; ++i) not_full_.notify_one();
  }

  mutable std::mutex mu_;
  size_t capacity_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool cancelled_ = false;
  // Parked-thread counts per side; bound how many wakeups a batch emits.
  size_t full_waiters_ = 0;
  size_t empty_waiters_ = 0;
  uint64_t total_pushed_ = 0;
  uint64_t empty_pops_ = 0;
};

}  // namespace plumber
