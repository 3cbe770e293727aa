// Session: the single environment object of the unified Plumber API.
//
// A Session owns everything a pipeline needs to exist — the simulated
// filesystem (optionally backed by an owned StorageDevice), the UDF
// registry, the MachineSpec being modeled, and the seed — and is the
// one source of truth for all of them: Flow::Run and Flow::Optimize
// derive their PipelineOptions/OptimizeOptions from the Session, so
// cpu_scale/seed/memory can no longer be wired twice and drift
// (formerly: MachineSpec vs PipelineOptions vs OptimizeOptions).
//
//   Session session;
//   session.machine().num_cores = 8;
//   session.CreateRecordFiles("train/part-", 8, 200, 1024);
//   session.RegisterUdf(decode_spec);
//   Flow flow = session.Files("train/").Interleave(4).Map("decode")
//                   .ShuffleAndRepeat(128).Batch(32);
//
// The GraphBuilder + PipelineOptions + Pipeline::Create layer remains
// public underneath for tooling that needs manual control; FromGraph()
// bridges a hand-built GraphDef into the Session world.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/flow.h"
#include "src/api/job_handle.h"
#include "src/core/machine.h"
#include "src/runtime/executor.h"

namespace plumber {

struct SessionOptions {
  MachineSpec machine = MachineSpec::SetupA();
  uint64_t seed = 42;
  // Jobs the session's executor runs concurrently; 0 = unlimited
  // (every Submit is admitted immediately and the maximin arbiter
  // splits the modeled cores). >0 queues excess submissions, which
  // shows up as RunReport::queue_seconds.
  int max_concurrent_jobs = 0;
  // SLO-aware scheduling (see docs/scheduling.md): when true (default)
  // JobOptions::slo tiers the core arbitration — interactive arrivals
  // park batch worker pools to their floor and queued interactive jobs
  // jump the admission queue. False = flat single-tier fair share.
  bool slo_preemption = true;
};

namespace internal {

// The shared environment behind a Session. Flows hold a reference too,
// so a Flow (and anything built from it) stays valid across Session
// moves and even outlives its Session.
struct SessionState {
  SessionOptions options;
  std::unique_ptr<StorageDevice> storage;
  // Local NIC endpoint, attached by AttachNic. Every pipeline built
  // from this session meters its remote_read wire bytes through this
  // one device, so its counters aggregate across concurrent jobs the
  // way a real host's NIC would.
  std::unique_ptr<StorageDevice> nic;
  SimFilesystem fs;
  UdfRegistry udfs;
  // The shared multi-tenant runtime, created on first Submit (or the
  // first Flow::Run, which is Submit + Wait). Declared last so it is
  // destroyed first: shutdown cancels and joins every job while the
  // filesystem/UDF registry above are still alive.
  std::mutex executor_mu;
  std::unique_ptr<runtime::Executor> executor;
};

// The only place the unified API turns session state into
// PipelineOptions. (Non-const: pipelines mutate the filesystem.)
PipelineOptions MakePipelineOptions(SessionState& state);
// Overwrites the environment half of OptimizeOptions (machine, fs,
// udfs, seed) from the session state.
void ApplyEnvironment(SessionState& state, OptimizeOptions* options);
// The session's executor, lazily created (thread-safe).
runtime::Executor& GetExecutor(SessionState& state);

}  // namespace internal

class Session {
 public:
  explicit Session(SessionOptions options = {});
  // Sessions are movable handles to their (shared) environment; copy is
  // disabled to keep ownership explicit. Flows created earlier remain
  // valid after a move.
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // -- Environment setup --------------------------------------------
  // Registers `num_files` record files named "<prefix>0".."<prefix>N-1"
  // of records_per_file x bytes_per_record each.
  Status CreateRecordFiles(const std::string& prefix, int num_files,
                           int records_per_file, uint64_t bytes_per_record);
  Status RegisterUdf(UdfSpec spec);
  // Attaches an owned storage device (bandwidth/latency modeling) to
  // the filesystem. Replaces any previously attached device.
  void AttachStorage(const DeviceSpec& spec);
  // Attaches an owned device modeling this host's NIC (e.g.
  // DeviceSpec::Gigabit()); every pipeline built from the session
  // charges remote_read wire bytes through it. Also records the spec
  // in machine().nic so the optimizer's network bound is derived from
  // the same numbers. Replaces any previously attached device.
  void AttachNic(const DeviceSpec& spec);

  // -- Flow sources --------------------------------------------------
  // Files matching the prefix (a file_list node).
  Flow Files(const std::string& prefix);
  Flow Range(int64_t count);
  // Wraps an existing GraphDef (low-level escape hatch); the flow's tip
  // is the graph's output node.
  Flow FromGraph(GraphDef graph);

  // Optimizes each signature-equivalent variant and picks the fastest
  // under a benchmark run (the paper's pick_best annotation, §B).
  StatusOr<OptimizedFlow> OptimizeBest(const std::vector<GraphDef>& variants,
                                       OptimizeOptions options = {});

  // -- Asynchronous execution ----------------------------------------
  // Enqueues the flow as a job on this session's shared Executor and
  // returns immediately. Concurrent jobs share the machine: the
  // executor re-plans the modeled core budget across all live jobs
  // (maximin across job rates) on every arrival and departure, and
  // retargets running worker pools in place. The flow must belong to
  // this session. See JobHandle for Wait/Cancel/Progress.
  //
  // Environment contract: running jobs read the session's filesystem
  // and UDF registry through unsynchronized pointers, so environment
  // mutation (CreateRecordFiles, RegisterUdf, AttachStorage, machine()
  // edits) must not race live jobs — set the environment up first, or
  // wait out submitted jobs before changing it. Submitting from
  // multiple threads is safe.
  JobHandle Submit(const Flow& flow, JobOptions options = {});

  // -- Accessors (the one source of truth) ---------------------------
  SimFilesystem& fs() { return state_->fs; }
  UdfRegistry& udfs() { return state_->udfs; }
  const UdfRegistry& udfs() const { return state_->udfs; }
  MachineSpec& machine() { return state_->options.machine; }
  const MachineSpec& machine() const { return state_->options.machine; }
  StorageDevice* storage() const { return state_->storage.get(); }
  StorageDevice* nic() const { return state_->nic.get(); }
  uint64_t seed() const { return state_->options.seed; }
  void set_seed(uint64_t seed) { state_->options.seed = seed; }

  // Derives instantiation options from the session state.
  PipelineOptions MakePipelineOptions() const {
    return internal::MakePipelineOptions(*state_);
  }
  // Fills the environment half of OptimizeOptions from the session,
  // keeping the tuning knobs.
  void ApplyTo(OptimizeOptions* options) {
    internal::ApplyEnvironment(*state_, options);
  }

 private:
  std::shared_ptr<internal::SessionState> state_;
};

}  // namespace plumber
