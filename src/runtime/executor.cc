#include "src/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/core/multi_job_planner.h"
#include "src/core/rewriter.h"
#include "src/util/cpu_timer.h"
#include "src/util/logging.h"

namespace plumber {
namespace runtime {

Executor::Executor(std::function<PipelineOptions()> pipeline_options,
                   std::function<MachineSpec()> machine,
                   ExecutorOptions options)
    : pipeline_options_(std::move(pipeline_options)),
      machine_(std::move(machine)),
      options_(options),
      scheduler_([this] { SchedulerLoop(); }) {}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(signal_->mu);
    stop_ = true;
    for (JobPtr& job : pending_) {
      FinishWithoutRunning(job.get(), JobPhase::kCancelled,
                           CancelledError("executor shut down"));
    }
    pending_.clear();
    // Trip every live job's token; drivers notice and wind down.
    for (auto& [id, job] : live_) {
      (void)id;
      job->Cancel();
    }
    signal_->cv.notify_all();
  }
  scheduler_.join();
  for (auto& [id, thread] : drivers_) {
    (void)id;
    if (thread.joinable()) thread.join();
  }
}

JobPtr Executor::Submit(GraphDef graph, JobOptions options) {
  std::lock_guard<std::mutex> lock(signal_->mu);
  const uint64_t id = next_job_id_++;
  if (options.name.empty()) options.name = "job-" + std::to_string(id);
  const std::string name = options.name;
  auto job = std::make_shared<Job>(id, name, std::move(graph),
                                   std::move(options), signal_);
  if (stop_) {
    FinishWithoutRunning(job.get(), JobPhase::kCancelled,
                         CancelledError("executor shut down"));
    return job;
  }
  EnqueuePendingLocked(job);
  signal_->cv.notify_all();
  return job;
}

int64_t Executor::DeadlineNs(const Job& job) {
  const double target = job.options().latency_target_s;
  if (target <= 0) return std::numeric_limits<int64_t>::max();
  return job.submit_ns_ + static_cast<int64_t>(target * 1e9);
}

void Executor::EnqueuePendingLocked(JobPtr job) {
  auto pos = pending_.end();
  if (options_.slo_preemption) {
    // Class-ordered queue: ahead of the first queued job in a lower
    // tier (higher ordinal), behind every same-or-better-tier job.
    // Within a class, earliest-deadline-first: a job with a
    // latency_target_s slots ahead of any same-class job due later
    // (deadline-free jobs score +inf, so they stay FIFO at the back of
    // their class and never reorder among themselves).
    const int tier = static_cast<int>(job->options().slo);
    const int64_t deadline = DeadlineNs(*job);
    pos = std::find_if(
        pending_.begin(), pending_.end(),
        [tier, deadline](const JobPtr& queued) {
          const int queued_tier = static_cast<int>(queued->options().slo);
          if (queued_tier != tier) return queued_tier > tier;
          return DeadlineNs(*queued) > deadline;
        });
  }
  pending_.insert(pos, std::move(job));
}

ExecutorLoadSnapshot Executor::LoadSnapshot() const {
  ExecutorLoadSnapshot snapshot;
  std::lock_guard<std::mutex> lock(signal_->mu);
  snapshot.queued_jobs = static_cast<int>(pending_.size());
  snapshot.running_jobs = static_cast<int>(live_.size());
  return snapshot;
}

void Executor::FinishWithoutRunning(Job* job, JobPhase phase, Status status) {
  RunResult result;
  result.status = std::move(status);
  job->Finish(phase, std::move(result), {});
}

void Executor::JoinFinishedDriversLocked() {
  for (uint64_t id : finished_driver_ids_) {
    auto it = drivers_.find(id);
    if (it == drivers_.end()) continue;
    // The driver published its id as its final locked action, so the
    // join only waits out the thread's return.
    it->second.join();
    drivers_.erase(it);
  }
  finished_driver_ids_.clear();
}

void Executor::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(signal_->mu);
  for (;;) {
    JoinFinishedDriversLocked();
    if (stop_) return;
    // Sweep queued cancellations so a Cancel before admission doesn't
    // sit behind the concurrency cap forever, and shed queued jobs
    // whose completion deadline has already passed: running one can
    // only miss harder while starving jobs that can still make it.
    const int64_t now_ns = WallNanos();
    for (auto it = pending_.begin(); it != pending_.end();) {
      if ((*it)->cancel_requested_.load(std::memory_order_acquire)) {
        FinishWithoutRunning(it->get(), JobPhase::kCancelled,
                             CancelledError("cancelled before admission"));
        it = pending_.erase(it);
      } else if (DeadlineNs(**it) <= now_ns) {
        FinishWithoutRunning(
            it->get(), JobPhase::kFailed,
            ResourceExhaustedError(
                "shed before running: latency target of " +
                std::to_string((*it)->options().latency_target_s) +
                "s expired in the queue"));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    while (!pending_.empty() &&
           (options_.max_concurrent_jobs <= 0 ||
            static_cast<int>(live_.size()) < options_.max_concurrent_jobs)) {
      JobPtr job = std::move(pending_.front());
      pending_.pop_front();
      AdmitLocked(std::move(job));
    }
    // Every other event notifies; the only timed one is the earliest
    // deadline still in the queue.
    int64_t wake_ns = std::numeric_limits<int64_t>::max();
    for (const JobPtr& job : pending_) {
      wake_ns = std::min(wake_ns, DeadlineNs(*job));
    }
    if (wake_ns == std::numeric_limits<int64_t>::max()) {
      signal_->cv.wait(lock);
    } else {
      signal_->cv.wait_until(lock, std::chrono::steady_clock::now() +
                                       std::chrono::nanoseconds(
                                           wake_ns - WallNanos()));
    }
  }
}

void Executor::AdmitLocked(JobPtr job) {
  job->governor_ = std::make_shared<ParallelismGovernor>();
  live_[job->id()] = job;
  // Arbitrate with the newcomer in the live set *before* instantiation
  // so its pipeline starts at its granted worker counts (the governor
  // target bounds the initial pool) instead of grabbing its configured
  // demand and shrinking a moment later.
  ReplanLocked();

  PipelineOptions popts = pipeline_options_();
  popts.governor = job->governor_;
  auto pipeline_or = Pipeline::Create(job->graph_, popts);
  if (!pipeline_or.ok()) {
    live_.erase(job->id());
    FinishWithoutRunning(job.get(), JobPhase::kFailed, pipeline_or.status());
    ReplanLocked();
    return;
  }
  auto pipeline = std::move(pipeline_or).value();
  auto iterator_or = pipeline->MakeIterator();
  if (!iterator_or.ok()) {
    live_.erase(job->id());
    FinishWithoutRunning(job.get(), JobPhase::kFailed, iterator_or.status());
    ReplanLocked();
    return;
  }
  {
    std::lock_guard<std::mutex> jlock(job->mu_);
    job->pipeline_ = std::move(pipeline);
    job->iterator_ = std::move(iterator_or).value();
    job->phase_ = JobPhase::kRunning;
    job->start_ns_ = WallNanos();
  }
  // A cancel that raced admission: trip the freshly created token so
  // the driver stops immediately.
  if (job->cancel_requested_.load(std::memory_order_acquire)) job->Cancel();
  drivers_[job->id()] = std::thread([this, job] { DriverLoop(job); });
}

void Executor::ReplanLocked() {
  std::vector<JobPtr> live;
  live.reserve(live_.size());
  for (auto& [id, job] : live_) {
    (void)id;
    live.push_back(job);
  }
  if (live.empty()) return;
  if (live.size() == 1) {
    // Single tenant: the job owns the machine. Restore its configured
    // knobs if earlier arbitration scaled it down; a job that was never
    // arbitrated is never touched (bit-identical Flow::Run behavior).
    JobPtr& job = live.front();
    if (job->arbitrated_) {
      job->arbitrated_ = false;
      for (const std::string& node : rewriter::TunableNodes(job->graph_)) {
        job->governor_->SetTarget(node, 0);  // back to configured
      }
    }
    return;
  }

  std::vector<JobDemand> demands;
  demands.reserve(live.size());
  for (const JobPtr& job : live) {
    std::string warning;
    JobDemand demand =
        DemandFromGraph(std::to_string(job->id()), job->graph_, &warning);
    if (!warning.empty() && demand_warned_.insert(job->id()).second) {
      // Partially traced graph (see the DemandFromGraph contract):
      // unstamped tunable stages dodge arbitration. Once per job, not
      // per re-plan.
      PLOG(Warning) << "job '" << job->name() << "': " << warning;
    }
    demand.weight = job->options().priority;
    if (options_.slo_preemption) {
      demand.tier = static_cast<int>(job->options().slo);
    }
    demands.push_back(std::move(demand));
  }
  const MultiJobPlan plan =
      PlanMultiJobAllocation(demands, machine_().num_cores);
  for (const JobPtr& job : live) {
    auto it = plan.jobs.find(std::to_string(job->id()));
    if (it == plan.jobs.end() || it->second.parallelism.empty()) continue;
    const LpPlan& job_plan = it->second;
    job->arbitrated_ = true;
    // Grants are absolute targets, not deltas, so consecutive re-plans
    // never compound.
    for (const auto& [node, parallelism] : job_plan.parallelism) {
      job->governor_->SetTarget(node, parallelism);
    }
  }
}

void Executor::DriverLoop(JobPtr job) {
  RunOptions run = job->options().run;
  Job* raw = job.get();
  RunHooks hooks;
  hooks.on_batch = [raw](int64_t batches, int64_t elements) {
    raw->batches_.store(batches, std::memory_order_relaxed);
    raw->elements_.store(elements, std::memory_order_relaxed);
  };
  hooks.should_stop = [raw] {
    return raw->cancel_requested_.load(std::memory_order_acquire);
  };
  IteratorBase* iterator = nullptr;
  Pipeline* pipeline = nullptr;
  {
    std::lock_guard<std::mutex> jlock(job->mu_);
    iterator = job->iterator_.get();
    pipeline = job->pipeline_.get();
  }
  RunResult result;
  bool warmup_failed = false;
  if (run.warmup_seconds > 0) {
    // Warm on the same iterator tree (so caches fill), then reset the
    // counters so node stats and bytes cover only the measured window
    // — the exact sequence the blocking Flow::Run used to run inline.
    RunOptions warmup;
    warmup.max_seconds = run.warmup_seconds;
    warmup.model_step_seconds = run.model_step_seconds;
    // Warmup batches are excluded from the job's Progress counters
    // (they restart for the measured window, and a backwards-moving
    // counter would confuse pollers); only the stop hook rides along.
    RunHooks warmup_hooks;
    warmup_hooks.should_stop = hooks.should_stop;
    result = RunIterator(iterator, warmup, warmup_hooks);
    run.warmup_seconds = 0;
    if (!result.status.ok()) {
      warmup_failed = true;
    } else {
      pipeline->stats().ResetAll();
    }
  }
  if (!warmup_failed) result = RunIterator(iterator, run, hooks);

  std::vector<IteratorStatsSnapshot> stats = pipeline->stats().Snapshot();
  JobPhase phase = JobPhase::kDone;
  if (job->cancel_requested_.load(std::memory_order_acquire) ||
      result.status.code() == StatusCode::kCancelled) {
    phase = JobPhase::kCancelled;
    // A cooperative cancel is a clean outcome, not a run error: the
    // partial counts stand and the report's status stays OK.
    if (result.status.code() == StatusCode::kCancelled) {
      result.status = OkStatus();
    }
  } else if (!result.status.ok()) {
    phase = JobPhase::kFailed;
  }
  job->Finish(phase, std::move(result), std::move(stats));
  {
    std::lock_guard<std::mutex> lock(signal_->mu);
    live_.erase(job->id());
    demand_warned_.erase(job->id());
    ReplanLocked();
    finished_driver_ids_.push_back(job->id());
    signal_->cv.notify_all();
  }
}

}  // namespace runtime
}  // namespace plumber
