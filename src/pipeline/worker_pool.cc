#include "src/pipeline/worker_pool.h"

#include <algorithm>
#include <cstdint>

#include "src/util/bounded_queue.h"
#include "src/util/spsc_ring.h"

namespace plumber {
namespace {

// The fixed cost of one claim (input-lock traffic plus the edge
// handoff, from the bench_micro_engine cheap-UDF sweep) and the share
// of a claim's work it may take (see "Claim sizing" in the header).
constexpr double kClaimOverheadNs = 2000;
constexpr double kMaxOverheadShare = 0.1;

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
                                            bool governed) {
  const size_t capacity = static_cast<size_t>(workers) * spec.depth_per_worker;
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
                                     governed_)),
      mpmc_(dynamic_cast<BoundedQueue<Item>*>(channel_.get())),
      // An SPSC edge keeps its depth, so its claims clamp to it.
      claim_cap_(std::min<size_t>(
          std::max(1, ctx->max_claim),
          mpmc_ != nullptr ? SIZE_MAX : channel_->capacity())) {
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
  Worker worker(index, claim_cap_ > 1);
  while (!ctx_->is_cancelled() && AwaitActive(index) && claim_(worker)) {
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

bool WorkerPool::PushBatch(Worker& worker, std::vector<Item> items) {
  if (items.empty()) return true;
  if (worker.sized_) SizeNextClaim(worker, items.size());
  stats_->RecordClaim();
  const bool pushed = channel_->PushBatch(std::move(items));
  worker.StartWork();
  return pushed;
}

void WorkerPool::SizeNextClaim(Worker& worker, size_t elements) {
  const double ns_per_element =
      static_cast<double>(WallNanos() - worker.work_start_ns_) / elements;
  const double needed =
      kClaimOverheadNs / (kMaxOverheadShare * std::max(ns_per_element, 1.0));
  size_t claim = 1;
  while (claim < claim_cap_ && static_cast<double>(claim) < needed) {
    claim *= 2;
  }
  claim = std::min(claim, claim_cap_);
  worker.claim_ = claim;
  size_t widest = widest_claim_.load(std::memory_order_relaxed);
  while (claim > widest) {
    if (widest_claim_.compare_exchange_weak(widest, claim,
                                            std::memory_order_relaxed)) {
      // Room for two of the widest claims: a worker publishes a whole
      // claim while the consumer drains the previous one.
      if (mpmc_ != nullptr) mpmc_->RaiseCapacity(2 * claim);
      break;
    }
  }
}

bool WorkerPool::Fail(Status status) {
  channel_->Push(Item{0, {}, std::move(status), false});
  return false;
}

bool WorkerPool::ForwardBatch(Worker& worker, IteratorBase* input) {
  std::vector<Element> claimed;
  claimed.reserve(worker.claim());
  bool end = false;
  const Status status = input->GetNextBatch(&claimed, worker.claim(), &end);
  if (!claimed.empty()) stats_->RecordConsumedBatch(claimed.size());
  std::vector<Item> items;
  items.reserve(claimed.size());
  for (Element& element : claimed) {
    items.push_back(Item{0, std::move(element), OkStatus(), false});
  }
  if (!PushBatch(worker, std::move(items))) return false;
  if (!status.ok()) return Fail(status);
  return !end;
}

bool WorkerPool::NextItem(Item* item) {
  if (drained_pos_ == drained_.size()) {
    drained_.clear();
    drained_pos_ = 0;
    const size_t widest = widest_claim_.load(std::memory_order_relaxed);
    if (channel_->PopBatch(widest, &drained_) == 0) return false;
  }
  *item = std::move(drained_[drained_pos_++]);
  return true;
}

Status WorkerPool::Next(Element* out, bool* end, uint64_t* order) {
  Item item;
  if (!ended_ && NextItem(&item) && !item.end && item.status.ok()) {
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
