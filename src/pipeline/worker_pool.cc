#include "src/pipeline/worker_pool.h"

#include <algorithm>

#include "src/util/bounded_queue.h"
#include "src/util/spsc_ring.h"

namespace plumber {
namespace {

int InitialTarget(PipelineContext* ctx, IteratorStats* stats,
                  const PoolSpec& spec) {
  // A published governor target (multi-tenant grant) bounds the live
  // worker count from the start; the configured count stays the demand
  // a later resize can grow back to.
  if (spec.governed && ctx->governor != nullptr) {
    const int t = ctx->governor->Target(stats->name());
    if (t > 0) return t;
  }
  return spec.workers;
}

// The output edge of a pool starting `workers` workers; the header
// explains the channel choice and PoolSpec the depth.
template <typename T>
std::unique_ptr<Channel<T>> MakeEdgeChannel(const PoolSpec& spec, int workers,
                                            bool governed,
                                            int engine_batch_size) {
  size_t capacity = static_cast<size_t>(workers) * spec.depth_per_worker;
  if (spec.batch_headroom) {
    capacity = std::max(
        capacity, 2 * static_cast<size_t>(std::max(1, engine_batch_size)));
  }
  if (workers == 1 && !governed) {
    return std::make_unique<SpscRing<T>>(capacity);
  }
  return std::make_unique<BoundedQueue<T>>(capacity);
}

}  // namespace

WorkerPool::WorkerPool(PipelineContext* ctx, IteratorStats* stats,
                       PoolSpec spec, Claim claim)
    : ctx_(ctx),
      stats_(stats),
      claim_(std::move(claim)),
      governed_(spec.governed && ctx->governor != nullptr),
      initial_(InitialTarget(ctx, stats, spec)),
      channel_(MakeEdgeChannel<Item>(spec, std::max(spec.workers, initial_),
                                     governed_, ctx->engine_batch_size)),
      batch_size_(
          ClampBatchToCapacity(ctx->engine_batch_size, channel_->capacity())),
      consumer_(channel_.get(), batch_size_) {
  stats_->SetParallelism(initial_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    target_.store(initial_, std::memory_order_relaxed);
    GrowLocked();
  }
  if (governed_) {
    governor_id_ = ctx_->governor->Register(stats_->name(), spec.workers,
                                            [this](int t) { Resize(t); });
  }
}

WorkerPool::~WorkerPool() {
  // Unregister first: after this returns no Resize can run, so workers_
  // is stable for the joins below.
  if (governed_) ctx_->governor->Unregister(governor_id_);
  {
    // Target 0 parks every worker at its next claim boundary and done
    // releases it; cancelling the edge unblocks workers mid-push.
    std::lock_guard<std::mutex> lock(mu_);
    target_.store(0, std::memory_order_relaxed);
    done_ = true;
  }
  park_cv_.notify_all();
  channel_->Cancel();
  for (auto& w : workers_) w.join();
}

void WorkerPool::GrowLocked() {
  while (!done_ &&
         static_cast<int>(workers_.size()) <
             target_.load(std::memory_order_relaxed)) {
    const int index = static_cast<int>(workers_.size());
    ++active_;
    workers_.emplace_back([this, index] { Run(index); });
  }
}

// Called from the governor's SetTarget (under the governor lock); never
// concurrently with the destructor, which unregisters first.
void WorkerPool::Resize(int target) {
  target = std::max(1, target);
  {
    std::lock_guard<std::mutex> lock(mu_);
    target_.store(target, std::memory_order_relaxed);
    GrowLocked();
  }
  park_cv_.notify_all();
  stats_->SetParallelism(target);
}

bool WorkerPool::AwaitActive(int index) {
  if (index < target_.load(std::memory_order_relaxed)) return true;
  std::unique_lock<std::mutex> lock(mu_);
  park_cv_.wait(lock, [&] {
    return done_ || index < target_.load(std::memory_order_relaxed);
  });
  return !done_;
}

void WorkerPool::Run(int index) {
  while (!ctx_->is_cancelled() && AwaitActive(index) && claim_(index)) {
  }
  // Done-on-exit (see the header). Done is set before the count drops,
  // so once it reaches zero no Resize can spawn a worker that would
  // send a second end sentinel.
  int remaining = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    remaining = --active_;
  }
  park_cv_.notify_all();
  if (remaining == 0) channel_->Push(Item{0, {}, OkStatus(), true});
}

bool WorkerPool::Push(Element element) {
  return channel_->Push(Item{0, std::move(element), OkStatus(), false});
}

bool WorkerPool::PushBatch(std::vector<Item> items) {
  return items.empty() || channel_->PushBatch(std::move(items));
}

bool WorkerPool::Fail(Status status) {
  channel_->Push(Item{0, {}, std::move(status), false});
  return false;
}

bool WorkerPool::ForwardBatch(IteratorBase* input) {
  std::vector<Element> claimed;
  claimed.reserve(batch_size_);
  bool end = false;
  const Status status = input->GetNextBatch(&claimed, batch_size_, &end);
  if (!claimed.empty()) stats_->RecordConsumedBatch(claimed.size());
  std::vector<Item> items;
  items.reserve(claimed.size());
  for (Element& element : claimed) {
    items.push_back(Item{0, std::move(element), OkStatus(), false});
  }
  if (!PushBatch(std::move(items))) return false;
  if (!status.ok()) return Fail(status);
  return !end;
}

Status WorkerPool::Next(Element* out, bool* end, uint64_t* order) {
  Item item;
  if (!ended_ && consumer_.Next(&item) && !item.end && item.status.ok()) {
    *out = std::move(item.element);
    if (order != nullptr) *order = item.order;
    *end = false;
    return OkStatus();
  }
  // The end sentinel, an error, or a cancelled and drained edge. An
  // item that never arrived keeps its default OK status.
  if (!ended_) {
    ended_ = true;
    error_ = std::move(item.status);
  }
  *end = true;
  return error_;
}

}  // namespace plumber
