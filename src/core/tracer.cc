#include "src/core/tracer.h"

#include <sstream>

#include "src/pipeline/ops.h"
#include "src/util/cpu_timer.h"

namespace plumber {

const IteratorStatsSnapshot* TraceSnapshot::FindStats(
    const std::string& name) const {
  for (const auto& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string TraceSnapshot::Serialize() const {
  std::ostringstream os;
  os << "# plumber trace, wall_seconds=" << wall_seconds
     << " machine=" << machine.name << "\n";
  os << graph.Serialize();
  for (const auto& s : stats) {
    os << "stat " << s.name << " produced=" << s.elements_produced
       << " consumed=" << s.elements_consumed
       << " bytes=" << s.bytes_produced << " bytes_read=" << s.bytes_read
       << " network_bytes=" << s.network_bytes
       << " cpu_ns=" << s.cpu_ns << " parallelism=" << s.parallelism
       << "\n";
  }
  for (const auto& [file, entry] : read_log) {
    os << "file " << file << " bytes_read=" << entry.bytes_read
       << " size=" << entry.file_size
       << " complete=" << (entry.fully_read ? 1 : 0) << "\n";
  }
  return os.str();
}

namespace {

void FillMetadata(Pipeline& pipeline, double wall_seconds,
                  const MachineSpec& machine, TraceSnapshot* trace) {
  trace->graph = pipeline.graph();
  trace->stats = pipeline.stats().Snapshot();
  if (pipeline.context()->fs != nullptr) {
    trace->read_log = pipeline.context()->fs->SnapshotReadLog();
    for (const auto& node : trace->graph.nodes()) {
      if (node.op == "file_list") {
        const std::string prefix = node.GetString(kAttrPrefix);
        trace->files_per_prefix[prefix] =
            pipeline.context()->fs->List(prefix).size();
      }
    }
  }
  trace->wall_seconds = wall_seconds;
  trace->machine = machine;
  const auto* root = trace->FindStats(trace->graph.output());
  trace->root_completions = root != nullptr ? root->elements_produced : 0;
  trace->observed_rate =
      wall_seconds > 0 ? trace->root_completions / wall_seconds : 0;
}

}  // namespace

TraceSnapshot CaptureTrace(Pipeline& pipeline, const TraceOptions& options) {
  if (options.warmup_seconds > 0) {
    RunOptions warmup;
    warmup.max_seconds = options.warmup_seconds;
    RunPipeline(pipeline, warmup);
  }
  if (options.simulate_cache_steady_state) {
    pipeline.SimulateSteadyState();
  }
  // The trace window starts clean: counters and the read log cover the
  // same interval as the snapshot's wall_seconds.
  pipeline.stats().ResetAll();
  if (pipeline.context()->fs != nullptr) {
    pipeline.context()->fs->ClearReadLog();
  }
  RunOptions run;
  run.max_seconds = options.trace_seconds;
  run.max_batches = options.max_batches;
  const RunResult result = RunPipeline(pipeline, run);
  TraceSnapshot trace;
  FillMetadata(pipeline, result.wall_seconds, options.machine, &trace);
  return trace;
}

TraceSnapshot SnapshotFromPipeline(Pipeline& pipeline, double wall_seconds,
                                   const MachineSpec& machine) {
  TraceSnapshot trace;
  FillMetadata(pipeline, wall_seconds, machine, &trace);
  return trace;
}

}  // namespace plumber
