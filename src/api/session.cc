#include "src/api/session.h"

namespace plumber {

void ApplyMachine(const MachineSpec& machine, PipelineOptions* options) {
  options->cpu_scale = machine.cpu_scale;
  options->memory_budget_bytes = machine.memory_bytes;
  options->scratch = machine.scratch;
  options->scratch_budget_bytes = machine.scratch_bytes;
}

namespace internal {

PipelineOptions MakePipelineOptions(SessionState& state) {
  PipelineOptions popts;
  popts.fs = &state.fs;
  popts.udfs = &state.udfs;
  popts.seed = state.options.seed;
  popts.nic = state.nic.get();
  ApplyMachine(state.options.machine, &popts);
  return popts;
}

runtime::Executor& GetExecutor(SessionState& state) {
  std::lock_guard<std::mutex> lock(state.executor_mu);
  if (state.executor == nullptr) {
    // The factories capture the owning state: the executor is a member
    // of it and is destroyed (cancelling + joining every job) first.
    SessionState* raw = &state;
    state.executor = std::make_unique<runtime::Executor>(
        [raw] { return MakePipelineOptions(*raw); },
        [raw] { return raw->options.machine; }, state.options.executor);
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
  return Flow(state_, GraphDef(), "")
      .Append("file_list", [&](GraphBuilder& b, const std::string& name) {
        return b.FileList(name, prefix);
      });
}

Flow Session::Range(int64_t count) {
  return Flow(state_, GraphDef(), "")
      .Append("range", [&](GraphBuilder& b, const std::string& name) {
        return b.Range(name, count);
      });
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
  PlumberOptimizer optimizer(std::move(options),
                             internal::MakePipelineOptions(*state_),
                             state_->options.machine);
  ASSIGN_OR_RETURN(OptimizeResult result, optimizer.PickBest(variants));
  return Flow::MakeOptimizedFlow(state_, std::move(result));
}

}  // namespace plumber
