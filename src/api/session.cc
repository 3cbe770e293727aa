#include "src/api/session.h"

#include "src/pipeline/ops.h"

namespace plumber {
namespace internal {

PipelineOptions MakePipelineOptions(SessionState& state) {
  const SessionOptions& so = state.options;
  PipelineOptions popts;
  popts.fs = &state.fs;
  popts.udfs = &state.udfs;
  popts.cpu_scale = so.machine.cpu_scale;
  popts.seed = so.seed;
  popts.memory_budget_bytes = so.machine.memory_bytes;
  popts.scratch = so.machine.scratch;
  popts.scratch_budget_bytes = so.machine.scratch_bytes;
  popts.nic = state.nic.get();
  return popts;
}

void ApplyEnvironment(SessionState& state, OptimizeOptions* options) {
  const SessionOptions& so = state.options;
  options->machine = so.machine;
  options->fs = &state.fs;
  options->udfs = &state.udfs;
  options->seed = so.seed;
  // The planner's network constraint defaults to the machine's NIC so
  // attaching one device keeps runtime metering and planning aligned;
  // an explicit per-call bandwidth wins.
  if (options->lp_options.network_bandwidth <= 0) {
    options->lp_options.network_bandwidth = so.machine.nic.max_bandwidth;
  }
}

runtime::Executor& GetExecutor(SessionState& state) {
  std::lock_guard<std::mutex> lock(state.executor_mu);
  if (state.executor == nullptr) {
    // The factories capture the owning state: the executor is a member
    // of it and is destroyed (cancelling + joining every job) first.
    SessionState* raw = &state;
    runtime::ExecutorOptions eopts;
    eopts.max_concurrent_jobs = state.options.max_concurrent_jobs;
    eopts.slo_preemption = state.options.slo_preemption;
    state.executor = std::make_unique<runtime::Executor>(
        [raw] { return MakePipelineOptions(*raw); },
        [raw] { return raw->options.machine; }, eopts);
  }
  return *state.executor;
}

}  // namespace internal

Session::Session(SessionOptions options)
    : state_(std::make_shared<internal::SessionState>()) {
  state_->options = std::move(options);
}

Status Session::CreateRecordFiles(const std::string& prefix, int num_files,
                                  int records_per_file,
                                  uint64_t bytes_per_record) {
  if (num_files <= 0 || records_per_file <= 0) {
    return InvalidArgumentError("CreateRecordFiles: counts must be positive");
  }
  for (int f = 0; f < num_files; ++f) {
    std::vector<uint64_t> sizes(records_per_file, bytes_per_record);
    RETURN_IF_ERROR(state_->fs.CreateRecordFile(prefix + std::to_string(f),
                                                state_->options.seed + f,
                                                std::move(sizes)));
  }
  return OkStatus();
}

Status Session::RegisterUdf(UdfSpec spec) {
  return state_->udfs.Register(std::move(spec));
}

void Session::AttachStorage(const DeviceSpec& spec) {
  state_->storage = std::make_unique<StorageDevice>(spec);
  state_->fs.set_device(state_->storage.get());
}

void Session::AttachNic(const DeviceSpec& spec) {
  state_->nic = std::make_unique<StorageDevice>(spec);
  state_->options.machine.nic = spec;
}

Flow Session::Files(const std::string& prefix) {
  NodeDef def;
  def.op = "file_list";
  def.attrs[kAttrPrefix] = AttrValue(prefix);
  return Flow(state_, GraphDef(), "").Append(std::move(def));
}

Flow Session::Range(int64_t count) {
  NodeDef def;
  def.op = "range";
  def.attrs[kAttrCount] = AttrValue(count);
  return Flow(state_, GraphDef(), "").Append(std::move(def));
}

Flow Session::FromGraph(GraphDef graph) {
  const std::string tip = graph.output();
  Flow flow(state_, std::move(graph), tip);
  if (tip.empty()) {
    flow.status_ = InvalidArgumentError("FromGraph: graph has no output set");
  }
  return flow;
}

JobHandle Session::Submit(const Flow& flow, JobOptions options) {
  if (flow.status().ok() && flow.state_ != state_) {
    return JobHandle(
        InvalidArgumentError("Submit: flow belongs to a different session"));
  }
  return flow.Submit(std::move(options));
}

StatusOr<OptimizedFlow> Session::OptimizeBest(
    const std::vector<GraphDef>& variants, OptimizeOptions options) {
  internal::ApplyEnvironment(*state_, &options);
  PlumberOptimizer optimizer(std::move(options));
  ASSIGN_OR_RETURN(OptimizeResult result, optimizer.PickBest(variants));
  return Flow::MakeOptimizedFlow(state_, std::move(result));
}

}  // namespace plumber
