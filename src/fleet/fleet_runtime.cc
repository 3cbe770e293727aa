#include "src/fleet/fleet_runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/util/cpu_timer.h"

namespace plumber {
namespace fleet {
namespace internal {

// The shared record behind one fleet job: written by the submitter
// (identity), the pump (dispatch), and read by any number of handles.
struct FleetJobRecord {
  uint64_t id = 0;
  GraphDef graph;
  runtime::JobOptions options;
  int pinned_host = -1;
  int64_t submit_ns = 0;

  std::mutex mu;
  std::condition_variable cv;
  int host = -1;            // set at dispatch
  bool stolen = false;
  int64_t dispatch_ns = 0;
  uint64_t transfer_bytes = 0;  // wire bytes paid to move this job
  runtime::JobPtr job;      // non-null once dispatched
  Status dispatch_status;   // non-OK if shutdown beat dispatch
  bool terminal = false;    // dispatched or dispatch-failed
};

}  // namespace internal

using internal::FleetJobRecord;

const char* DispatchPolicyName(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin:
      return "round_robin";
    case DispatchPolicy::kLeastLoaded:
      return "least_loaded";
    case DispatchPolicy::kLocality:
      return "locality";
    case DispatchPolicy::kSloAware:
      return "slo_aware";
  }
  return "unknown";
}

namespace {
// Sliding-window depth for per-host interactive queue-latency samples:
// enough for a stable p95, small enough to track load shifts.
constexpr size_t kLatencyWindow = 64;
// Extra jobs handed to an executor beyond host_concurrent_jobs so a
// host never idles between completions; everything past this stays in
// the (stealable) fleet queue.
constexpr int kDispatchDepth = 1;
}  // namespace

Status FleetJobHandle::Wait() const {
  if (record_ == nullptr) {
    return FailedPreconditionError("empty fleet job handle");
  }
  runtime::JobPtr job;
  {
    std::unique_lock<std::mutex> lock(record_->mu);
    record_->cv.wait(lock, [&] { return record_->terminal; });
    if (!record_->dispatch_status.ok()) return record_->dispatch_status;
    job = record_->job;
  }
  job->Wait();
  return job->result().status;
}

FleetJobStats FleetJobHandle::Stats() const {
  FleetJobStats stats;
  if (record_ == nullptr) return stats;
  runtime::JobPtr job;
  {
    std::lock_guard<std::mutex> lock(record_->mu);
    stats.host = record_->host;
    stats.stolen = record_->stolen;
    stats.slo = record_->options.slo;
    stats.transfer_bytes = record_->transfer_bytes;
    if (record_->dispatch_ns > 0) {
      stats.fleet_queue_s =
          (record_->dispatch_ns - record_->submit_ns) * 1e-9;
    }
    job = record_->job;
  }
  if (job != nullptr) {
    const runtime::JobProgress progress = job->Progress();
    stats.exec_queue_s = progress.queue_seconds;
    stats.run_s = progress.run_seconds;
    stats.elements = progress.elements;
  }
  stats.completion_s = stats.fleet_queue_s + stats.exec_queue_s + stats.run_s;
  return stats;
}

FleetRuntime::FleetRuntime(
    FleetOptions options,
    std::function<PipelineOptions(int host)> pipeline_options)
    : options_(std::move(options)),
      pipeline_options_(std::move(pipeline_options)) {
  if (options_.hosts.empty()) options_.hosts.push_back(MachineSpec{});
  options_.host_concurrent_jobs = std::max(1, options_.host_concurrent_jobs);
  nics_.reserve(options_.hosts.size());
  for (const MachineSpec& machine : options_.hosts) {
    nics_.push_back(std::make_unique<StorageDevice>(machine.nic));
  }
  executors_.reserve(options_.hosts.size());
  for (size_t h = 0; h < options_.hosts.size(); ++h) {
    runtime::ExecutorOptions eopts;
    eopts.max_concurrent_jobs = options_.host_concurrent_jobs;
    const int host = static_cast<int>(h);
    executors_.push_back(std::make_unique<runtime::Executor>(
        [this, host] {
          // Overlay the host's own NIC so every pipeline the executor
          // instantiates meters remote reads through it — the same
          // device the migration path charges, so one counter pair
          // tells the whole per-host network story.
          PipelineOptions popts = pipeline_options_(host);
          popts.nic = nics_[host].get();
          return popts;
        },
        [this, host] { return options_.hosts[host]; }, eopts));
  }
  queues_.resize(options_.hosts.size());
  interactive_queue_s_.resize(options_.hosts.size());
  pump_ = std::thread([this] { PumpLoop(); });
}

FleetRuntime::~FleetRuntime() {
  std::vector<RecordPtr> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& queue : queues_) {
      for (RecordPtr& record : queue) orphans.push_back(std::move(record));
      queue.clear();
    }
    cv_.notify_all();
  }
  pump_.join();
  for (const RecordPtr& record : orphans) {
    std::lock_guard<std::mutex> rlock(record->mu);
    record->dispatch_status = CancelledError("fleet runtime shut down");
    record->terminal = true;
    record->cv.notify_all();
  }
  // Executor destructors cancel and join every dispatched job.
  executors_.clear();
}

FleetJobHandle FleetRuntime::Submit(GraphDef graph, FleetJobOptions options) {
  auto record = std::make_shared<FleetJobRecord>();
  record->graph = std::move(graph);
  record->options = std::move(options.job);
  record->pinned_host = options.pinned_host;
  record->submit_ns = WallNanos();
  std::lock_guard<std::mutex> lock(mu_);
  record->id = next_id_++;
  if (record->options.name.empty()) {
    record->options.name = "fleet-job-" + std::to_string(record->id);
  }
  if (stop_) {
    std::lock_guard<std::mutex> rlock(record->mu);
    record->dispatch_status = CancelledError("fleet runtime shut down");
    record->terminal = true;
    record->cv.notify_all();
    return FleetJobHandle(std::move(record));
  }
  const int host = RouteLocked(*record);
  queues_[host].push_back(record);
  cv_.notify_all();
  return FleetJobHandle(std::move(record));
}

int FleetRuntime::RouteLocked(const FleetJobRecord& record) {
  const int hosts = num_hosts();
  switch (options_.policy) {
    case DispatchPolicy::kRoundRobin: {
      const int host = rr_next_;
      rr_next_ = (rr_next_ + 1) % hosts;
      return host;
    }
    case DispatchPolicy::kLeastLoaded:
      return LeastLoadedLocked();
    case DispatchPolicy::kLocality:
      if (record.pinned_host >= 0) return record.pinned_host % hosts;
      return LeastLoadedLocked();
    case DispatchPolicy::kSloAware:
      if (record.options.slo == runtime::SloClass::kInteractive) {
        return LowestInteractiveLatencyLocked();
      }
      return LeastLoadedLocked();
  }
  return 0;
}

int FleetRuntime::LowestInteractiveLatencyLocked() const {
  // Route to the host whose recent interactive arrivals queued the
  // least. An unobserved host scores 0 — optimistic on purpose, so the
  // dispatcher explores every host before trusting the windows — and
  // the least-loaded score breaks ties (including the all-unobserved
  // cold start).
  int best = 0;
  double best_p95 = std::numeric_limits<double>::infinity();
  double best_load = std::numeric_limits<double>::infinity();
  for (int h = 0; h < num_hosts(); ++h) {
    const double p95 = InteractiveP95Locked(h);
    const runtime::ExecutorLoadSnapshot snap = executors_[h]->LoadSnapshot();
    const double cores = std::max(1, options_.hosts[h].num_cores);
    const double load = (snap.queued_jobs + snap.running_jobs +
                         static_cast<double>(queues_[h].size())) /
                        cores;
    if (p95 < best_p95 - 1e-12 ||
        (std::abs(p95 - best_p95) <= 1e-12 && load < best_load)) {
      best_p95 = p95;
      best_load = load;
      best = h;
    }
  }
  return best;
}

double FleetRuntime::InteractiveP95Locked(int host) const {
  const std::deque<double>& window = interactive_queue_s_[host];
  if (window.empty()) return 0;
  std::vector<double> sorted(window.begin(), window.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t idx =
      static_cast<size_t>(0.95 * (sorted.size() - 1) + 0.5);  // nearest rank
  return sorted[idx];
}

void FleetRuntime::SampleInteractiveLatencyLocked() {
  for (auto it = latency_watch_.begin(); it != latency_watch_.end();) {
    RecordPtr& record = *it;
    runtime::JobPtr job;
    int host = -1;
    int64_t fleet_queue_ns = 0;
    {
      std::lock_guard<std::mutex> rlock(record->mu);
      job = record->job;
      host = record->host;
      fleet_queue_ns = record->dispatch_ns - record->submit_ns;
    }
    // Queueing ends when the driver starts (or the job finishes
    // without ever starting — cancelled/failed in the queue, whose
    // queue_seconds froze at that point).
    if (job == nullptr || (!job->started() && !job->finished())) {
      ++it;
      continue;
    }
    if (host >= 0 && host < static_cast<int>(interactive_queue_s_.size())) {
      std::deque<double>& window = interactive_queue_s_[host];
      window.push_back(fleet_queue_ns * 1e-9 + job->queue_seconds());
      while (window.size() > kLatencyWindow) window.pop_front();
    }
    it = latency_watch_.erase(it);
  }
}

int FleetRuntime::LeastLoadedLocked() const {
  int best = 0;
  double best_load = std::numeric_limits<double>::infinity();
  for (int h = 0; h < num_hosts(); ++h) {
    const runtime::ExecutorLoadSnapshot snap = executors_[h]->LoadSnapshot();
    // Jobs in flight anywhere on the host (executor + fleet queue) per
    // modeled core, so a big host absorbs proportionally more.
    const double cores = std::max(1, options_.hosts[h].num_cores);
    const double load =
        (snap.queued_jobs + snap.running_jobs +
         static_cast<double>(queues_[h].size())) /
        cores;
    if (load < best_load) {
      best_load = load;
      best = h;
    }
  }
  return best;
}

void FleetRuntime::DispatchLocked(RecordPtr record, int host,
                                  uint64_t transfer_bytes) {
  runtime::JobPtr job =
      executors_[host]->Submit(record->graph, record->options);
  const bool interactive =
      record->options.slo == runtime::SloClass::kInteractive;
  {
    std::lock_guard<std::mutex> rlock(record->mu);
    record->host = host;
    record->transfer_bytes = transfer_bytes;
    record->dispatch_ns = WallNanos();
    record->job = std::move(job);
    record->terminal = true;
    record->cv.notify_all();
  }
  // Feed the kSloAware latency signal: watch this job until its
  // queueing ends, then record how long it queued on this host.
  if (interactive) latency_watch_.push_back(std::move(record));
}

FleetHostLoad FleetRuntime::HostLoad(int host) const {
  FleetHostLoad load;
  std::lock_guard<std::mutex> lock(mu_);
  load.executor = executors_[host]->LoadSnapshot();
  load.fleet_queued = static_cast<int>(queues_[host].size());
  load.interactive_p95_queue_s = InteractiveP95Locked(host);
  return load;
}

void FleetRuntime::PumpLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  // Each host's executor is kept topped up to cap jobs (running +
  // queued inside the executor); the surplus stays in the fleet queue
  // where the stealing pass below can still re-route it.
  const int cap = options_.host_concurrent_jobs + kDispatchDepth;
  for (;;) {
    if (stop_) return;
    SampleInteractiveLatencyLocked();
    bool any_queued = false;
    for (int h = 0; h < num_hosts(); ++h) {
      runtime::ExecutorLoadSnapshot snap = executors_[h]->LoadSnapshot();
      while (snap.queued_jobs + snap.running_jobs < cap &&
             !queues_[h].empty()) {
        RecordPtr record = std::move(queues_[h].front());
        queues_[h].pop_front();
        DispatchLocked(std::move(record), h);
        ++snap.queued_jobs;
      }
      any_queued = any_queued || !queues_[h].empty();
    }
    bool stole = false;
    if (options_.work_stealing && any_queued) {
      for (int h = 0; h < num_hosts(); ++h) {
        if (!queues_[h].empty()) continue;  // has local work
        runtime::ExecutorLoadSnapshot snap = executors_[h]->LoadSnapshot();
        // A Submit may queue local work while a steal's transfer runs
        // unlocked; the host stops stealing then.
        while (queues_[h].empty() &&
               snap.queued_jobs + snap.running_jobs < cap) {
          // Steal from the deepest backlog; take the newest arrival so
          // the victim's oldest jobs keep their locality.
          int victim = -1;
          size_t victim_depth = 0;
          for (int v = 0; v < num_hosts(); ++v) {
            if (v == h || queues_[v].empty()) continue;
            if (queues_[v].size() > victim_depth) {
              victim_depth = queues_[v].size();
              victim = v;
            }
          }
          if (victim < 0) break;
          RecordPtr record = std::move(queues_[victim].back());
          queues_[victim].pop_back();
          {
            std::lock_guard<std::mutex> rlock(record->mu);
            record->stolen = true;
          }
          steal_count_.fetch_add(1, std::memory_order_relaxed);
          // Migration is not free: the serialized program crosses the
          // wire from the victim to the thief, paying both NICs'
          // latency and bandwidth before the job can start. Charge it
          // with mu_ released so Submit and HostLoad on every host
          // never wait out a transfer. The record sits in no queue
          // meanwhile and the pump is the only dispatcher, so nothing
          // else can reach it.
          lock.unlock();
          const uint64_t payload = record->graph.Serialize().size();
          nics_[victim]->Charge(payload);
          nics_[h]->Charge(payload);
          transfer_bytes_.fetch_add(payload, std::memory_order_relaxed);
          lock.lock();
          DispatchLocked(std::move(record), h, payload);
          ++snap.queued_jobs;
          stole = true;
        }
      }
    }
    // A Submit during a steal's unlocked transfer notified no waiter:
    // make another pass instead of sleeping on its job.
    if (stole) continue;
    // Executor completions have no wakeup channel into the pump, so
    // poll on a short tick while work is waiting; otherwise sleep
    // until a Submit (or shutdown) notifies.
    cv_.wait_for(lock, any_queued ? std::chrono::milliseconds(1)
                                  : std::chrono::milliseconds(50));
  }
}

}  // namespace fleet
}  // namespace plumber
