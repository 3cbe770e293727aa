#include "src/api/fleet_session.h"

#include "src/core/rewriter.h"

namespace plumber {

FleetSession::FleetSession(FleetSessionOptions options)
    : options_(std::move(options)),
      env_([&] {
        SessionOptions so;
        so.seed = options_.seed;
        return so;
      }()) {
  runtime_ = std::make_unique<fleet::FleetRuntime>(
      options_.hosts, options_.fleet, [this](int host) {
        // Start from the environment Session's options (filesystem,
        // UDFs, seed), then overlay the host's own hardware: its core
        // speed, memory budget and scratch tier. Per-host seeds
        // decorrelate modeled randomness across hosts.
        PipelineOptions popts = env_.MakePipelineOptions();
        ApplyMachine(runtime_->host_machine(host), &popts);
        popts.seed = options_.seed + static_cast<uint64_t>(host);
        return popts;
      });
}

fleet::FleetJobHandle FleetSession::Submit(GraphDef graph,
                                           fleet::FleetJobOptions options) {
  if (options.pinned_host < 0) {
    // Shard-stamped programs get locality by default: shard i of a
    // ShardSource rewrite runs on host i mod fleet size. An explicit
    // pin (>= 0) always wins.
    const int shard = rewriter::GraphShardIndex(graph);
    if (shard >= 0) {
      options.pinned_host = shard % runtime_->num_hosts();
    }
  }
  return runtime_->Submit(std::move(graph), std::move(options));
}

StatusOr<fleet::FleetReport> FleetSession::Replay(
    const fleet::ArrivalTrace& trace,
    const fleet::TraceReplayOptions& options) {
  fleet::TraceReplayDriver driver(runtime_.get(), &env_.udfs());
  return driver.Replay(trace, options);
}

}  // namespace plumber
