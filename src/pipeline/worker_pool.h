// WorkerPool: the one worker-thread mechanism behind every threaded
// operator (parallel map, parallel interleave, shard_merge and
// prefetch).
//
// An op supplies only its claim body. One call claims a unit of work
// (a run of inputs, a file, a shard's next run), does it, and hands the
// results to PushBatch; it returns false when the calling worker
// should stop (input exhausted, an error reported through Fail, or the
// edge cancelled). The pool owns everything else:
//
//   * the threads and their joins;
//   * the output edge: one Channel, picked per edge topology (below),
//     of {order, element, status, end} items, drained by the consumer
//     up to the widest claim per pop;
//   * the size of every claim (below);
//   * the live target of a governed pool: the ParallelismGovernor
//     registration, the initial Target() lookup, parking workers above
//     the target at claim boundaries and growing up to it;
//   * the end/error protocol: errors travel in-band and stay sticky at
//     the consumer, and the last worker to exit sends the end sentinel.
//
// Claim sizing: each worker starts at a claim of one element and sizes
// every next claim from the per-element work it just measured: the
// smallest power of two n for which the fixed cost of a claim (input
// lock traffic plus the edge handoff, ~2 us) is at most 10% of n
// elements' work, capped at PipelineContext::max_claim. Work is the
// wall time from Worker::StartWork, or from the previous handoff, up to
// this handoff: the op's own per-element work (the map's UDF loop,
// interleave's record reads) or, for a pass-through claim (prefetch,
// shard_merge), the input pull that is all it does. Time blocked on
// the output edge or waiting for the input lock never counts, so
// backpressure and contention never shrink a claim, and per-claim costs
// do not pass for per-element work. Stages at 20 us/element or more
// stay at one element, and any larger claim holds under ~40 us of that
// work, which bounds park and cancel latency (a map's input pull comes
// on top). An MPMC edge deepens to twice a claim that passes half its
// depth; an SPSC edge keeps its depth and clamps claims to it. Claim
// sizes never change which elements are produced: the map claims its
// order tickets under the input lock.
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
// life (prefetch, a one-shard merge) gets the lock-free SpscRing;
// everything else gets the MPMC BoundedQueue. A governed pool stays
// MPMC even while it runs one worker: the governor can grow it
// mid-stream, and swapping channels under live producers cannot
// preserve element identity.
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
#include "src/util/cpu_timer.h"

namespace plumber {

struct PoolSpec {
  // Configured worker count (the graph's parallelism); a governed pool
  // grows back to it when its target is cleared.
  int workers = 1;
  // Follows the governor's live per-node target when the pipeline
  // carries one (map and interleave).
  bool governed = false;
  // Output edge depth: this many items per starting worker (the larger
  // of the configured count and the initial target). An MPMC edge
  // deepens as claims grow (see the header); an SPSC edge keeps it.
  size_t depth_per_worker = 4;
};

template <typename T>
class BoundedQueue;

class WorkerPool {
 public:
  // What one worker carries from claim to claim.
  class Worker {
   public:
    // 0-based, stable for the thread's life.
    int index() const { return index_; }
    // Elements the next claim takes per input call and hands off per
    // PushBatch (see "Claim sizing" in the header).
    size_t claim() const { return claim_; }
    // Starts the work clock; a claim calls it where its own per-element
    // work begins, after its input pull. PushBatch restarts it after
    // every handoff.
    void StartWork() {
      if (sized_) work_start_ns_ = WallNanos();
    }

   private:
    friend class WorkerPool;
    Worker(int index, bool sized) : index_(index), sized_(sized) {
      StartWork();
    }

    const int index_;
    const bool sized_;  // false when the cap pins every claim to one
    size_t claim_ = 1;
    int64_t work_start_ns_ = 0;
  };

  using Claim = std::function<bool(Worker& worker)>;

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

  size_t capacity() const { return channel_->capacity(); }

  // Worker side. PushBatch hands off a sized claim and sizes `worker`'s
  // next one; it returns false once the edge is cancelled (the pool is
  // being torn down).
  bool PushBatch(Worker& worker, std::vector<Item> items);
  // Sends `status` to the consumer; returns false so a claim can end
  // with `return pool.Fail(status);`.
  bool Fail(Status status);
  // A pass-through claim: the next claim of `input`, pushed unchanged
  // (prefetch and shard_merge).
  bool ForwardBatch(Worker& worker, IteratorBase* input);

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
  void SizeNextClaim(Worker& worker, size_t elements);
  // Consumer side: the next drained item; false once the edge is
  // cancelled and empty.
  bool NextItem(Item* item);

  PipelineContext* const ctx_;
  IteratorStats* const stats_;
  const Claim claim_;
  const bool governed_;
  const int initial_;
  const std::unique_ptr<Channel<Item>> channel_;
  // The edge when it is MPMC (null for SPSC), deepened as claims grow.
  BoundedQueue<Item>* const mpmc_;
  const size_t claim_cap_;
  // The widest claim any worker has sized: the consumer's pop size.
  std::atomic<size_t> widest_claim_{1};

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
  std::vector<Item> drained_;
  size_t drained_pos_ = 0;
  bool ended_ = false;
  Status error_;
};

}  // namespace plumber
