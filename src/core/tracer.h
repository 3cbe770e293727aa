// Plumber's tracer: joins runtime statistics with the serialized
// program (paper §4.1 "Tracing").
//
// A TraceSnapshot is everything the analysis layer needs: the GraphDef
// (every trace is a valid, rewritable program), per-iterator counters,
// the filesystem read log, and the wall-clock window. CaptureTrace runs
// the pipeline under a benchmark workload for a bounded time and
// snapshots the result.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/io/piecewise_linear.h"
#include "src/pipeline/pipeline.h"
#include "src/pipeline/runner.h"

namespace plumber {

struct TraceSnapshot {
  GraphDef graph;
  std::vector<IteratorStatsSnapshot> stats;
  std::map<std::string, FileReadEntry> read_log;
  // Total file count per source prefix (from program + filesystem
  // metadata), used by the subsampled size estimator.
  std::map<std::string, uint64_t> files_per_prefix;
  double wall_seconds = 0;
  MachineSpec machine;
  // Root completions and rate observed during the trace window.
  uint64_t root_completions = 0;
  double observed_rate = 0;  // minibatches/sec

  const IteratorStatsSnapshot* FindStats(const std::string& name) const;

  // Serializes the trace (program + counters) to a human-readable dump,
  // mirroring Plumber's periodic stats file.
  std::string Serialize() const;
};

struct TraceOptions {
  double trace_seconds = 0.25;
  int64_t max_batches = 0;  // optional cap
  MachineSpec machine;
  // Run the pipeline for this long before the trace window (excluded
  // from the trace) — e.g. to start filling an injected cache.
  double warmup_seconds = 0;
  // After the warmup, freeze partially-filled caches as complete (the
  // paper's §B steady-state simulation). The trace then observes warm-
  // cache rates instead of one-epoch cache-fill rates.
  bool simulate_cache_steady_state = false;
};

// Runs `pipeline` for the trace window and snapshots stats.
TraceSnapshot CaptureTrace(Pipeline& pipeline, const TraceOptions& options);

// Builds a snapshot from already-accumulated pipeline stats without
// running it (anytime tracing: §B "Tracing Time").
TraceSnapshot SnapshotFromPipeline(Pipeline& pipeline, double wall_seconds,
                                   const MachineSpec& machine);

}  // namespace plumber
