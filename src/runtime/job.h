// Job: the state machine behind one asynchronous pipeline execution.
//
// A Job is created by Executor::Submit and moves through
//   kQueued -> kRunning -> {kDone, kCancelled, kFailed}
// (kQueued can also jump straight to kCancelled). The Executor's
// scheduler thread performs admission (instantiates the pipeline,
// arbitrates cores across live jobs) and a per-job driver thread runs
// the measurement loop; this object is the shared, lock-protected
// record both sides and any number of user-facing handles observe.
//
// Layering: runtime sits on pipeline/ + core/ only. The user-facing
// JobHandle (src/api/job_handle.h) wraps a shared_ptr<Job> and
// assembles the api-level RunReport from the fields here.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/pipeline/pipeline.h"
#include "src/pipeline/runner.h"

namespace plumber {
namespace runtime {

enum class JobPhase { kQueued, kRunning, kDone, kCancelled, kFailed };

// SLO class of a job: how the scheduler treats it when the machine is
// contended. Classes are allocation *tiers* — the executor plans
// interactive jobs first (parking batch/best-effort worker pools down
// to their floor of one worker per stage), batch next, best-effort
// last — and queued jobs wait in class-tier order. Within a class,
// JobOptions::priority weights the water-fill share. The enum order IS
// the tier order.
enum class SloClass { kInteractive = 0, kBatch = 1, kBestEffort = 2 };
inline constexpr int kNumSloClasses = 3;

const char* SloClassName(SloClass slo);

// The executor's scheduler lock and wake-up, co-owned by every job it
// creates so Job::Cancel can wake the scheduler. Because jobs share
// ownership, a Cancel that arrives after the executor is gone (a handle
// outliving its Session, FleetRuntime shutdown) wakes nobody, safely.
struct SchedulerSignal {
  std::mutex mu;
  std::condition_variable cv;
};

struct JobOptions {
  // Stop conditions, warmup and simulated step time — exactly what
  // Flow::Run accepts (Run is Submit + Wait).
  RunOptions run;
  // Label for reports/progress; "job-<id>" when empty.
  std::string name;
  // Latency class. kBatch (the default) reproduces the classic
  // all-jobs-equal arbitration when every job uses it.
  SloClass slo = SloClass::kBatch;
  // Weight within the class: the weighted water-fill equalizes
  // rate/priority across same-class jobs, so a priority-3 job targets
  // 3x the rate (and so roughly 3x the cores) of a priority-1 peer.
  // Values <= 0 are treated as 1.
  double priority = 1.0;
  // Optional completion-latency target in seconds (0 = none). The
  // executor acts on it twice: queued jobs of the same SLO class run
  // earliest-deadline-first (ahead of deadline-free peers), and a
  // queued job whose deadline has already passed is shed with
  // kResourceExhausted instead of burning cores on a guaranteed miss.
  // TraceReplayDriver scores per-class attainment against it.
  double latency_target_s = 0;
};

// Live snapshot of a job, observable at any phase.
struct JobProgress {
  JobPhase phase = JobPhase::kQueued;
  int64_t batches = 0;
  int64_t elements = 0;
  double queue_seconds = 0;  // submit -> run start (or now if queued)
  double run_seconds = 0;    // run start -> now (or finish)
  std::vector<IteratorStatsSnapshot> node_stats;
};

class Job {
 public:
  Job(uint64_t id, std::string name, GraphDef graph, JobOptions options,
      std::shared_ptr<SchedulerSignal> scheduler);

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const std::string& output_node() const { return output_node_; }
  const JobOptions& options() const { return options_; }

  JobPhase phase() const;
  bool finished() const;
  // True once the job was admitted and execution began; false for jobs
  // that failed instantiation or were cancelled while still queued.
  bool started() const;

  // Requests cooperative cancellation: a queued job wakes the scheduler,
  // which finishes it without running; a running job's pipeline token is
  // tripped and the driver stops at the next batch boundary.
  void Cancel();

  // Blocks until the job reaches a terminal phase.
  void Wait();

  // Live stats: counters from the driver loop plus a point-in-time
  // snapshot of the pipeline's per-node stats (the final snapshot once
  // the job finished).
  JobProgress Progress() const;

  // Terminal-state accessors (call after Wait / finished()).
  const RunResult& result() const { return result_; }
  const std::vector<IteratorStatsSnapshot>& final_stats() const {
    return final_stats_;
  }
  double queue_seconds() const;

 private:
  friend class Executor;

  void Finish(JobPhase phase, RunResult result,
              std::vector<IteratorStatsSnapshot> stats);

  const uint64_t id_;
  const std::string name_;
  const std::string output_node_;
  const JobOptions options_;
  const std::shared_ptr<SchedulerSignal> scheduler_;

  mutable std::mutex mu_;
  std::condition_variable finished_cv_;
  JobPhase phase_ = JobPhase::kQueued;
  // The submitted program (instantiation source, never mutated).
  const GraphDef graph_;
  // Re-planned away from the submitted knobs since the job last ran
  // alone. Guarded by the executor's lock (SchedulerSignal::mu), which
  // every re-plan holds; the job's grant itself lives only in
  // governor_'s targets.
  bool arbitrated_ = false;
  GovernorPtr governor_;  // live worker retargeting channel
  std::unique_ptr<Pipeline> pipeline_;
  std::unique_ptr<IteratorBase> iterator_;

  std::atomic<bool> cancel_requested_{false};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> elements_{0};
  int64_t submit_ns_ = 0;
  int64_t start_ns_ = 0;   // 0 until the driver starts
  int64_t finish_ns_ = 0;  // 0 until terminal

  RunResult result_;
  std::vector<IteratorStatsSnapshot> final_stats_;
};

using JobPtr = std::shared_ptr<Job>;

}  // namespace runtime
}  // namespace plumber
