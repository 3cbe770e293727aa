#include "src/api/fleet_session.h"

#include "src/core/rewriter.h"

namespace plumber {

FleetSession::FleetSession(FleetSessionOptions options)
    : options_(std::move(options)),
      env_([&] {
        SessionOptions so;
        so.seed = options_.seed;
        so.work_model = options_.work_model;
        return so;
      }()) {
  fleet::FleetOptions fopts = options_.fleet;
  fopts.hosts = options_.hosts;
  if (fopts.hosts.empty()) fopts.hosts.push_back(MachineSpec{});
  options_.hosts = fopts.hosts;
  runtime_ = std::make_unique<fleet::FleetRuntime>(
      std::move(fopts), [this](int host) {
        // Start from the environment Session's options (filesystem,
        // UDFs, seed, work model), then overlay the host's own
        // hardware: its core speed and memory budget. Per-host seeds
        // decorrelate modeled randomness across hosts.
        PipelineOptions popts = env_.MakePipelineOptions();
        const MachineSpec& machine = options_.hosts[host];
        popts.cpu_scale = machine.cpu_scale;
        popts.memory_budget_bytes = machine.memory_bytes;
        popts.scratch = machine.scratch;
        popts.scratch_budget_bytes = machine.scratch_bytes;
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
      options.pinned_host =
          shard % static_cast<int>(options_.hosts.size());
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
