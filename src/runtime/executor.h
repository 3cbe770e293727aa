// Executor: the shared multi-tenant runtime behind Session::Submit.
//
// One Executor serves one Session's modeled machine. Submit enqueues a
// Job and returns immediately; a scheduler thread admits jobs (up to
// max_concurrent_jobs at a time), instantiates their pipelines, and
// spawns one driver thread per job to run the measurement loop. On
// every arrival and departure the scheduler re-arbitrates the
// machine's modeled cores across all live jobs with the maximin
// allocator (src/core/multi_job_planner): each job's grant is published
// as per-node targets on its ParallelismGovernor — the one record of
// it, read back through ParallelismGovernor::Targets() — which grows
// or parks its running map and interleave worker pools in place
// (src/pipeline/worker_pool.h). A job running alone is never
// arbitrated — its pipeline behaves exactly as the blocking
// single-tenant Flow::Run always did — and when departures leave a
// single survivor its configured knobs are restored.
//
// Scheduling is SLO-aware (see docs/scheduling.md): jobs carry an SLO
// class and a priority weight (JobOptions), the arbitration allocates
// class tiers in order with work-conserving redistribution, and a job
// that cannot start waits in the queue in class-tier, then deadline
// (EDF), order; it is shed only when its latency_target_s runs out
// there. With defaults everywhere — every job kBatch at priority 1 —
// the behavior is exactly the flat fair-share scheduler this replaced.
//
// Lifetime: the Executor owns the scheduler and driver threads and
// keeps every unfinished job alive; destruction cancels all jobs and
// joins everything. Handles (shared_ptr<Job>) stay valid after the
// Executor (and its Session) are gone.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/core/machine.h"
#include "src/runtime/job.h"

namespace plumber {
namespace runtime {

struct ExecutorOptions {
  // Jobs allowed to run concurrently; 0 = unlimited (the scheduler
  // admits every submission as soon as it wakes for it, cores
  // arbitrated by the planner rather than by queueing).
  int max_concurrent_jobs = 0;
  // When true (default) the scheduler honors JobOptions::slo: the
  // core arbitration allocates in class tiers — an interactive
  // arrival parks resident batch/best-effort worker pools down to
  // their floor of one worker per stage, and its departure restores
  // them — and queued interactive jobs jump ahead of queued batch
  // work. When false every job is planned in one tier and the queue
  // is strict FIFO (the pre-SLO scheduler, the bench's control arm).
  // JobOptions::priority weights apply either way.
  bool slo_preemption = true;
};

// Point-in-time load view of one Executor: the dispatch signal a
// fleet-level balancer (src/fleet/fleet_runtime.h) compares across
// hosts.
struct ExecutorLoadSnapshot {
  int queued_jobs = 0;   // submitted, not yet admitted
  int running_jobs = 0;  // admitted, driver live
};

class Executor {
 public:
  // `pipeline_options` derives instantiation options per admission and
  // `machine` supplies the core budget per re-plan; both are invoked
  // on executor threads and must stay valid for the executor's life
  // (the Session's state owns both the factories' target and the
  // executor itself).
  Executor(std::function<PipelineOptions()> pipeline_options,
           std::function<MachineSpec()> machine,
           ExecutorOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Enqueues a job for admission. Never blocks; failures (including
  // submission after shutdown) surface through the job's phase/result.
  JobPtr Submit(GraphDef graph, JobOptions options);

  // Queue depth and running set in one consistent view.
  ExecutorLoadSnapshot LoadSnapshot() const;

 private:
  void SchedulerLoop();
  // Inserts into pending_ in class-tier order (interactive ahead of
  // batch ahead of best-effort) when slo_preemption is on; plain FIFO
  // otherwise. Within a class, jobs with a latency_target_s run
  // earliest-deadline-first ahead of deadline-free jobs, which keep
  // FIFO among themselves.
  void EnqueuePendingLocked(JobPtr job);
  // Absolute completion deadline (submit + latency_target_s) in wall
  // nanos; int64 max for jobs without a target.
  static int64_t DeadlineNs(const Job& job);
  void AdmitLocked(JobPtr job);
  // Recomputes the multi-job core split over the live set and publishes
  // it as governor targets. Single survivor gets its configured knobs
  // back; a job running alone is never touched.
  void ReplanLocked();
  void DriverLoop(JobPtr job);
  void FinishWithoutRunning(Job* job, JobPhase phase, Status status);
  void JoinFinishedDriversLocked();

  const std::function<PipelineOptions()> pipeline_options_;
  const std::function<MachineSpec()> machine_;
  const ExecutorOptions options_;

  // Guards everything below; shared with every job (see
  // SchedulerSignal). The scheduler sleeps on its cv until a Submit, a
  // queued job's Cancel, a driver's exit, or the earliest queued
  // deadline.
  const std::shared_ptr<SchedulerSignal> signal_ =
      std::make_shared<SchedulerSignal>();
  bool stop_ = false;
  uint64_t next_job_id_ = 1;
  std::deque<JobPtr> pending_;
  std::map<uint64_t, JobPtr> live_;
  // Jobs whose partially-traced demand was already warned about, so
  // the DemandFromGraph contract violation logs once per job rather
  // than on every re-plan. Pruned on departure.
  std::set<uint64_t> demand_warned_;
  std::map<uint64_t, std::thread> drivers_;
  std::vector<uint64_t> finished_driver_ids_;
  std::thread scheduler_;
};

}  // namespace runtime
}  // namespace plumber
