// WorkerPool: the one worker-thread mechanism behind every threaded
// operator (parallel map, parallel interleave, map_and_batch,
// shard_merge and prefetch).
//
// An op supplies only its claim body. One call claims a unit of work
// (a batch of inputs, a file, a shard's next batch), does it, and hands
// the results to Push/PushBatch; it returns false when the calling
// worker should stop (input exhausted, an error reported through Fail,
// or the edge cancelled). The pool owns everything else:
//
//   * the threads and their joins;
//   * the output edge: one Channel, picked per edge topology (below),
//     drained by one BatchedChannelConsumer of {order, element, status,
//     end} items;
//   * the live target of a governed pool: the ParallelismGovernor
//     registration, the initial Target() lookup, parking workers above
//     the target at claim boundaries and growing up to it;
//   * the end/error protocol: errors travel in-band and stay sticky at
//     the consumer, and the last worker to exit sends the end sentinel.
//
// Done-on-exit: a worker that leaves its loop for any reason marks the
// pool done. Done wakes parked workers (which then exit) and stops
// growth, but never stops a running worker — a shard_merge worker that
// drained its own shard must not end its siblings. Parked workers wait
// on a predicate with no timeout: the target never drops below one, so
// worker 0 always runs, observes a cancel at its next claim boundary,
// and its exit releases the rest.
//
// Channel choice: one worker feeding the consumer for the pool's whole
// life (prefetch, a one-shard merge, a fixed single-worker
// map_and_batch) gets the lock-free SpscRing; everything else gets the
// MPMC BoundedQueue. A governed pool stays MPMC even while it runs one
// worker: the governor can grow it mid-stream, and swapping channels
// under live producers cannot preserve element identity.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/pipeline/dataset.h"
#include "src/util/channel.h"

namespace plumber {

struct PoolSpec {
  // Configured worker count (the graph's parallelism); a governed pool
  // grows back to it when its target is cleared.
  int workers = 1;
  // Follows the governor's live per-node target when the pipeline
  // carries one (map, interleave and map_and_batch).
  bool governed = false;
  // Output edge depth: this many items per starting worker (the larger
  // of the configured count and the initial target) ...
  size_t depth_per_worker = 4;
  // ... and, when set, at least two engine batches, so a claimed batch
  // is never clamped by the channel and a worker can publish a full
  // batch while the consumer drains the previous one.
  bool batch_headroom = true;
};

class WorkerPool {
 public:
  // One claim by worker `index` (0-based, stable for the thread's life).
  using Claim = std::function<bool(int index)>;

  // One output item. A claim sets `order` (the deterministic map's
  // ticket; 0 elsewhere) and `element`; status and end are the pool's
  // protocol.
  struct Item {
    uint64_t order = 0;
    Element element;
    Status status;
    bool end = false;
  };

  // Starts the pool's initial workers; they call `claim` until it
  // returns false. Everything `claim` touches must outlive the pool, so
  // an op declares its pool after the state its claims use.
  WorkerPool(PipelineContext* ctx, IteratorStats* stats, PoolSpec spec,
             Claim claim);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Elements a claim should take per input call and hand off per push:
  // the engine batch size, clamped to the edge's capacity.
  size_t batch_size() const { return batch_size_; }
  size_t capacity() const { return channel_->capacity(); }

  // Worker side. Push/PushBatch return false once the edge is cancelled
  // (the pool is being torn down).
  bool Push(Element element);
  bool PushBatch(std::vector<Item> items);
  // Sends `status` to the consumer; returns false so a claim can end
  // with `return pool.Fail(status);`.
  bool Fail(Status status);
  // A pass-through claim: the next engine batch of `input`, pushed
  // unchanged (prefetch and shard_merge).
  bool ForwardBatch(IteratorBase* input);

  // Consumer side (one thread). Serves the next element in completion
  // order with the order ticket its claim assigned. Sets *end once every
  // worker has exited; returns the first worker error instead. Either
  // outcome repeats on every later call.
  Status Next(Element* out, bool* end, uint64_t* order = nullptr);
  double EmptyPopFraction() const { return channel_->EmptyPopFraction(); }

 private:
  void Run(int index);
  // True when worker `index` may claim; parks it while its index is at
  // or above the target, and returns false once the pool is done.
  bool AwaitActive(int index);
  void Resize(int target);
  void GrowLocked();

  PipelineContext* const ctx_;
  IteratorStats* const stats_;
  const Claim claim_;
  const bool governed_;
  const int initial_;
  const std::unique_ptr<Channel<Item>> channel_;
  const size_t batch_size_;

  // Live worker control: workers_ grows under mu_ (initial spawn and
  // Resize) and never shrinks until destruction; workers indexed at or
  // above target_ park.
  std::mutex mu_;
  std::condition_variable park_cv_;
  std::atomic<int> target_{0};
  bool done_ = false;
  int active_ = 0;
  uint64_t governor_id_ = 0;
  std::vector<std::thread> workers_;

  // Consumer-side state (accessed only from Next).
  BatchedChannelConsumer<Item> consumer_;
  bool ended_ = false;
  Status error_;
};

}  // namespace plumber
