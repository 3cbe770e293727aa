// A lock-free single-producer / single-consumer bounded ring channel.
//
// The zero-contention fast path of the data plane: structurally 1:1
// edges (prefetch fill->GetNext, single-worker pools) hand elements off
// through this ring instead of a mutex-guarded queue. Design:
//
//   * Power-of-two capacity; monotonically increasing head/tail indices
//     masked into slots, so full/empty tests are plain subtractions and
//     no index ever wraps ambiguously.
//   * Producer and consumer indices live on separate cache lines, and
//     each side keeps a cached copy of the other's index so the common
//     push/pop refreshes the shared line only when the cached view says
//     the ring might be full/empty (one acquire load per capacity
//     window, not per element).
//   * Batch claim/publish: PushBatch moves a whole span of items into
//     claimed slots and publishes them with one release store; PopBatch
//     drains a span with one release store of the head.
//   * Spin-then-park waiting: a stalled side spins briefly (the
//     neighbor is usually nanoseconds away), then parks on a condvar so
//     an idle consumer doesn't burn a core. The park protocol is a
//     Dekker handshake: the waiter advertises itself (seq_cst), re-checks
//     the ring, then sleeps; the publisher stores the new index and then
//     checks the advertisement (seq_cst), so at least one side always
//     sees the other and no wakeup is lost.
//
// Thread contract: at most one thread pushes and one thread pops at any
// time. Cancel() and the metric accessors are safe from any thread.
// Semantics match BoundedQueue (see Channel<T> in src/util/channel.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/util/channel.h"
#include "src/util/cpu_timer.h"

namespace plumber {

template <typename T>
class SpscRing final : public Channel<T> {
 public:
  // Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscRing(size_t capacity)
      : capacity_(RoundUpPow2(capacity < 2 ? 2 : capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_) {}

  bool Push(T item) override {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (!WaitForSpace(tail)) return false;
    slots_[tail & mask_] = std::move(item);
    Publish(tail + 1, /*pushed=*/1);
    return true;
  }

  bool PushBatch(std::vector<T> items) override {
    if (items.empty()) return !cancelled();
    size_t offset = 0;
    while (offset < items.size()) {
      const uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (!WaitForSpace(tail)) return false;
      const size_t n =
          std::min(items.size() - offset, FreeSlots(tail));
      for (size_t i = 0; i < n; ++i) {
        slots_[(tail + i) & mask_] = std::move(items[offset + i]);
      }
      offset += n;
      Publish(tail + n, /*pushed=*/n);
    }
    return true;
  }

  size_t PopBatch(size_t max_items, std::vector<T>* out) override {
    if (max_items == 0) return 0;
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const bool was_empty = AvailableItems(head) == 0;
    if (!WaitForItems(head)) {
      empty_pops_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    const size_t n = std::min(max_items, AvailableItems(head));
    // EmptyPopFraction's denominator counts elements, so a stalled batch
    // claim counts every element it delayed (see BoundedQueue::PopBatch).
    if (was_empty) {
      empty_pops_.fetch_add(n, std::memory_order_relaxed);
    }
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(slots_[(head + i) & mask_]));
    }
    Release(head + n);
    return n;
  }

  void Cancel() override {
    cancelled_.store(true, std::memory_order_seq_cst);
    // Lock before notifying so a waiter past its predicate re-check but
    // not yet asleep cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(wait_mu_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool cancelled() const override {
    return cancelled_.load(std::memory_order_acquire);
  }

  size_t size() const override {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  size_t capacity() const override { return capacity_; }

  double EmptyPopFraction() const override {
    const uint64_t pushed = total_pushed_.load(std::memory_order_relaxed);
    const uint64_t empty = empty_pops_.load(std::memory_order_relaxed);
    const uint64_t pops = pushed + empty;
    return pops == 0 ? 0.0 : static_cast<double>(empty) / pops;
  }

 private:
  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  // Brief spin before parking: the peer is usually mid-batch and will
  // advance the ring within a microsecond; parking costs two syscalls.
  static constexpr int kSpinRounds = 4096;

  size_t FreeSlots(uint64_t tail) {
    // Producer-side: refresh the cached head only when the cache says
    // full — the single acquire load per capacity window.
    if (capacity_ - (tail - head_cache_) == 0) {
      head_cache_ = head_.load(std::memory_order_acquire);
    }
    return capacity_ - static_cast<size_t>(tail - head_cache_);
  }

  size_t AvailableItems(uint64_t head) {
    if (tail_cache_ - head == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
    }
    return static_cast<size_t>(tail_cache_ - head);
  }

  // Park-loop re-checks: seq_cst index loads so the Dekker handshake
  // with Publish/Release is airtight (the fast paths keep acquire).
  size_t FreeSlotsSlow(uint64_t tail) {
    head_cache_ = head_.load(std::memory_order_seq_cst);
    return capacity_ - static_cast<size_t>(tail - head_cache_);
  }

  size_t AvailableItemsSlow(uint64_t head) {
    tail_cache_ = tail_.load(std::memory_order_seq_cst);
    return static_cast<size_t>(tail_cache_ - head);
  }

  // Blocks (spin then park) until at least one slot is free. False once
  // cancelled.
  bool WaitForSpace(uint64_t tail) {
    if (cancelled_.load(std::memory_order_acquire)) return false;
    if (FreeSlots(tail) > 0) return true;
    for (int i = 0; i < kSpinRounds; ++i) {
      if (cancelled_.load(std::memory_order_acquire)) return false;
      if (FreeSlots(tail) > 0) return true;
    }
    BlockedRegion blocked;  // producer stall: not CPU work
    std::unique_lock<std::mutex> lock(wait_mu_);
    producer_parked_.store(true, std::memory_order_seq_cst);
    while (!cancelled_.load(std::memory_order_seq_cst) &&
           FreeSlotsSlow(tail) == 0) {
      not_full_.wait(lock);
    }
    producer_parked_.store(false, std::memory_order_seq_cst);
    return !cancelled_.load(std::memory_order_acquire);
  }

  // Blocks until at least one item is visible. False only when
  // cancelled AND drained (matching BoundedQueue's drain-then-stop).
  bool WaitForItems(uint64_t head) {
    if (AvailableItems(head) > 0) return true;
    if (!cancelled_.load(std::memory_order_acquire)) {
      for (int i = 0; i < kSpinRounds; ++i) {
        if (AvailableItems(head) > 0) return true;
        if (cancelled_.load(std::memory_order_acquire)) break;
      }
      BlockedRegion blocked;  // consumer stall: not CPU work
      std::unique_lock<std::mutex> lock(wait_mu_);
      consumer_parked_.store(true, std::memory_order_seq_cst);
      while (!cancelled_.load(std::memory_order_seq_cst) &&
             AvailableItemsSlow(head) == 0) {
        not_empty_.wait(lock);
      }
      consumer_parked_.store(false, std::memory_order_seq_cst);
    }
    return AvailableItems(head) > 0;
  }

  // Publishes claimed slots and wakes a parked consumer.
  void Publish(uint64_t new_tail, size_t pushed) {
    tail_.store(new_tail, std::memory_order_seq_cst);
    total_pushed_.fetch_add(pushed, std::memory_order_relaxed);
    if (consumer_parked_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(wait_mu_);
      not_empty_.notify_one();
    }
  }

  // Releases consumed slots and wakes a parked producer.
  void Release(uint64_t new_head) {
    head_.store(new_head, std::memory_order_seq_cst);
    if (producer_parked_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(wait_mu_);
      not_full_.notify_one();
    }
  }

  const size_t capacity_;
  const uint64_t mask_;
  std::vector<T> slots_;

  // Producer side: owns tail_, caches the consumer's head.
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t head_cache_ = 0;
  // Consumer side: owns head_, caches the producer's tail.
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t tail_cache_ = 0;

  alignas(64) std::atomic<bool> cancelled_{false};
  std::atomic<bool> producer_parked_{false};
  std::atomic<bool> consumer_parked_{false};
  std::mutex wait_mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;

  // Stall counters (relaxed: read cross-thread by EmptyPopFraction,
  // exactness of interleaving does not matter).
  std::atomic<uint64_t> total_pushed_{0};
  std::atomic<uint64_t> empty_pops_{0};
};

}  // namespace plumber
