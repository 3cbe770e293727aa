// Pipeline execution harness: the "training loop" consumer.
//
// Drives a pipeline's root iterator, optionally simulating an
// accelerator by pausing model_step_time between batches (the pipeline's
// prefetch threads keep working during the pause). Reports throughput
// and average Next-call latency — the per-step fetch latency that the
// paper's fleet analysis (§3) uses to detect input-bound jobs.
#pragma once

#include <cstdint>
#include <functional>

#include "src/pipeline/pipeline.h"

namespace plumber {

struct RunOptions {
  // Stop conditions (whichever comes first; 0 disables a condition, but
  // at least one must be set).
  double max_seconds = 0;
  int64_t max_batches = 0;
  // Simulated accelerator step time per batch (seconds).
  double model_step_seconds = 0;
  // Batches to discard before measuring (pipeline warmup).
  int64_t warmup_batches = 0;
  // Wall-clock window driven on the same iterator before the measured
  // window (so caches fill and threads spin up), excluded from the
  // measurement. Runs after warmup_batches if both are set.
  double warmup_seconds = 0;
};

struct RunResult {
  Status status;
  int64_t batches = 0;
  int64_t elements = 0;  // total components across batches
  double wall_seconds = 0;
  double batches_per_second = 0;
  double elements_per_second = 0;
  // Mean wall time blocked inside GetNext (fetch latency).
  double mean_next_latency_seconds = 0;
  // Process CPU consumed during the measured window, in core-seconds.
  double process_cpu_seconds = 0;
  // Mean cores in use = process_cpu_seconds / wall_seconds.
  double mean_cores_used = 0;
  bool reached_end = false;
};

// Live observation and control of a run in flight. Default-constructed
// hooks are no-ops: RunIterator(it, options) == RunIterator(it,
// options, {}) batch for batch. The async executor (src/runtime/) uses
// these to surface JobHandle::Progress() and to stop a job promptly on
// Cancel without waiting for a stop condition.
struct RunHooks {
  // Called after every measured batch with the running totals.
  std::function<void(int64_t batches, int64_t elements)> on_batch;
  // Extra stop condition, checked before every GetNext (including
  // warmup). Returning true ends the run like a deadline would.
  std::function<bool()> should_stop;
};

// Creates a fresh iterator from the pipeline and drives it.
RunResult RunPipeline(Pipeline& pipeline, const RunOptions& options);

// Drives an existing iterator (keeps caches/progress across calls).
RunResult RunIterator(IteratorBase* iterator, const RunOptions& options,
                      const RunHooks& hooks = {});

}  // namespace plumber
