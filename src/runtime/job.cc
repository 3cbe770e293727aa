#include "src/runtime/job.h"

#include "src/util/cpu_timer.h"

namespace plumber {
namespace runtime {

const char* SloClassName(SloClass slo) {
  switch (slo) {
    case SloClass::kInteractive:
      return "interactive";
    case SloClass::kBatch:
      return "batch";
    case SloClass::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

Job::Job(uint64_t id, std::string name, GraphDef graph, JobOptions options,
         std::shared_ptr<SchedulerSignal> scheduler)
    : id_(id),
      name_(std::move(name)),
      output_node_(graph.output()),
      options_(std::move(options)),
      scheduler_(std::move(scheduler)),
      graph_(std::move(graph)),
      submit_ns_(WallNanos()) {}

JobPhase Job::phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_;
}

bool Job::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_ != JobPhase::kQueued && phase_ != JobPhase::kRunning;
}

bool Job::started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return start_ns_ > 0;
}

void Job::Cancel() {
  cancel_requested_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Trip the per-job cancellation token: the driver (and every worker
    // inside the pipeline) observes it cooperatively.
    if (pipeline_ != nullptr) pipeline_->Cancel();
    if (phase_ != JobPhase::kQueued) return;
  }
  // A queued job is finished by the scheduler: wake it. The scheduler
  // lock is taken after mu_ is released, keeping the executor-then-job
  // lock order; the executor itself cancels only admitted jobs, so it
  // never reaches this line while holding that lock.
  std::lock_guard<std::mutex> lock(scheduler_->mu);
  scheduler_->cv.notify_all();
}

void Job::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  finished_cv_.wait(lock, [&] {
    return phase_ != JobPhase::kQueued && phase_ != JobPhase::kRunning;
  });
}

// The end of a job's queueing: run start, or — for jobs that never ran
// (cancelled while queued, failed instantiation) — the terminal
// timestamp, so queue_seconds stops growing once the job is finished.
// Requires mu_.
static int64_t QueueEndNanos(int64_t start_ns, int64_t finish_ns) {
  if (start_ns > 0) return start_ns;
  if (finish_ns > 0) return finish_ns;
  return WallNanos();
}

JobProgress Job::Progress() const {
  JobProgress progress;
  std::lock_guard<std::mutex> lock(mu_);
  progress.phase = phase_;
  progress.batches = batches_.load(std::memory_order_relaxed);
  progress.elements = elements_.load(std::memory_order_relaxed);
  progress.queue_seconds =
      (QueueEndNanos(start_ns_, finish_ns_) - submit_ns_) * 1e-9;
  if (start_ns_ > 0) {
    progress.run_seconds =
        ((finish_ns_ > 0 ? finish_ns_ : WallNanos()) - start_ns_) * 1e-9;
  }
  progress.node_stats =
      pipeline_ != nullptr ? pipeline_->stats().Snapshot() : final_stats_;
  return progress;
}

double Job::queue_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return (QueueEndNanos(start_ns_, finish_ns_) - submit_ns_) * 1e-9;
}

void Job::Finish(JobPhase phase, RunResult result,
                 std::vector<IteratorStatsSnapshot> stats) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
    result_ = std::move(result);
    final_stats_ = std::move(stats);
    finish_ns_ = WallNanos();
    // Tear the execution down inside the lock so Progress() never
    // observes a half-destroyed pipeline; destruction joins the
    // pipeline's worker threads (the token is already tripped).
    if (pipeline_ != nullptr) pipeline_->Cancel();
    iterator_.reset();
    pipeline_.reset();
  }
  finished_cv_.notify_all();
}

}  // namespace runtime
}  // namespace plumber
