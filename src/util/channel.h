// Channel<T>: the inter-operator handoff interface of the data plane.
//
// Every edge between a producing worker pool and its consumer moves
// elements through a Channel. Two implementations exist:
//
//   * BoundedQueue<T> (src/util/bounded_queue.h): mutex-guarded MPMC
//     blocking queue — any number of producers and consumers, waiter-
//     counted wakeups. The only safe choice when an edge has (or can be
//     retargeted to) more than one thread per side.
//   * SpscRing<T> (src/util/spsc_ring.h): lock-free single-producer /
//     single-consumer ring — cache-line-padded indices, batch
//     claim/publish, spin-then-park waiting. Chosen for edges the
//     topology proves are 1:1 for their whole lifetime.
//
// Every pipeline worker pool picks between them for its output edge at
// iterator instantiation (see src/pipeline/worker_pool.h); the
// conformance suite in tests/channel_test.cc runs against both.
//
// Blocking semantics shared by all implementations: Push/PushBatch
// block while full and return false once cancelled (remaining items
// dropped); PopBatch blocks while empty, drains remaining items after
// cancellation, and reports exhaustion (0) only when cancelled AND
// empty.
#pragma once

#include <cstddef>
#include <vector>

namespace plumber {

template <typename T>
class Channel {
 public:
  virtual ~Channel() = default;

  // Blocks until space is available or the channel is cancelled.
  // Returns false if cancelled.
  virtual bool Push(T item) = 0;

  // Pushes every item, moving whole capacity windows per synchronization
  // point instead of one element at a time. Blocks while full. Returns
  // false if cancelled (remaining items are dropped, matching Push).
  virtual bool PushBatch(std::vector<T> items) = 0;

  // Pops up to `max_items` per synchronization point, appending to
  // *out. Blocks until at least one item is available or the channel is
  // cancelled and drained; returns the number appended (0 only on
  // cancellation with an empty channel).
  virtual size_t PopBatch(size_t max_items, std::vector<T>* out) = 0;

  // Unblocks all waiters; subsequent pushes fail, pops drain remaining
  // items then report exhaustion.
  virtual void Cancel() = 0;

  virtual bool cancelled() const = 0;
  virtual size_t size() const = 0;
  virtual size_t capacity() const = 0;

  // Fraction of popped elements that found the channel empty first
  // (consumer stalls); a prefetch node records it as its
  // queue_empty_fraction.
  virtual double EmptyPopFraction() const = 0;
};

}  // namespace plumber
