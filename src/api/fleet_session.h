// FleetSession: the unified-API bridge into the fleet serving runtime.
//
// A FleetSession is to FleetRuntime what Session is to Executor: it
// owns the shared environment (one Session supplies the simulated
// filesystem, UDF registry, and seed for every host) and wires a
// per-host PipelineOptions factory that overrides cpu_scale and the
// memory budget from each host's own MachineSpec, so a heterogeneous
// fleet models heterogeneous hardware while serving one program
// namespace.
//
//   FleetSessionOptions fo;
//   fo.hosts = {MachineSpec::SetupA(), MachineSpec::SetupA(),
//               MachineSpec::SetupB(), MachineSpec::SetupB()};
//   fo.fleet.policy = fleet::DispatchPolicy::kLeastLoaded;
//   FleetSession cluster(fo);
//   auto trace = fleet::MakeBurstyTrace(fleet::CalibratedJobClasses(), {});
//   auto report = cluster.Replay(trace);   // FleetReport quantiles
//
// Individual programs go through Submit(GraphDef) with an optional
// locality pin; trace replay goes through Replay(). The single-host
// Session path is untouched — a FleetSession is an additive layer.
#pragma once

#include <memory>
#include <vector>

#include "src/api/session.h"
#include "src/fleet/fleet_runtime.h"
#include "src/fleet/trace_replay.h"

namespace plumber {

struct FleetSessionOptions {
  // One modeled machine per host; empty gets one default host.
  std::vector<MachineSpec> hosts;
  // Dispatch policy, stealing, per-host concurrency.
  fleet::FleetOptions fleet;
  uint64_t seed = 42;
};

class FleetSession {
 public:
  explicit FleetSession(FleetSessionOptions options = {});

  // The factories handed to host executors capture `this`.
  FleetSession(const FleetSession&) = delete;
  FleetSession& operator=(const FleetSession&) = delete;
  FleetSession(FleetSession&&) = delete;
  FleetSession& operator=(FleetSession&&) = delete;

  // Environment setup, shared by every host (set up before submitting;
  // the single-Session environment contract applies fleet-wide).
  Status RegisterUdf(UdfSpec spec) { return env_.RegisterUdf(std::move(spec)); }
  Status CreateRecordFiles(const std::string& prefix, int num_files,
                           int records_per_file, uint64_t bytes_per_record) {
    return env_.CreateRecordFiles(prefix, num_files, records_per_file,
                                  bytes_per_record);
  }

  // Routes one program into the fleet (see FleetRuntime::Submit). A
  // per-shard program cut out by rewriter::ExtractShard carries its
  // shard index in the graph; when the caller leaves pinned_host unset,
  // Submit pins such a program to host (shard index % num hosts), so
  // the shards of one ShardSource rewrite land on distinct hosts and
  // read against distinct modeled devices.
  fleet::FleetJobHandle Submit(GraphDef graph,
                               fleet::FleetJobOptions options = {});

  // Replays an arrival trace through the fleet and reports fleet-wide
  // latency quantiles and per-host utilization.
  StatusOr<fleet::FleetReport> Replay(
      const fleet::ArrivalTrace& trace,
      const fleet::TraceReplayOptions& options = {});

  // The environment Session (filesystem, UDFs, seed — one namespace
  // for all hosts) and the runtime underneath.
  Session& env() { return env_; }
  fleet::FleetRuntime& runtime() { return *runtime_; }

 private:
  FleetSessionOptions options_;
  Session env_;
  std::unique_ptr<fleet::FleetRuntime> runtime_;
};

}  // namespace plumber
