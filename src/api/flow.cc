#include "src/api/flow.h"

#include <map>

#include "src/api/job_handle.h"
#include "src/api/session.h"
#include "src/pipeline/ops.h"

namespace plumber {
namespace {

// Structural node equality (used to unify shared prefixes when merging
// flow graphs). Attr values compare via their serialized form.
bool SameNode(const NodeDef& a, const NodeDef& b) {
  if (a.name != b.name || a.op != b.op || a.inputs != b.inputs) return false;
  if (a.attrs.size() != b.attrs.size()) return false;
  for (const auto& [key, value] : a.attrs) {
    auto it = b.attrs.find(key);
    if (it == b.attrs.end()) return false;
    if (it->second.Serialize() != value.Serialize()) return false;
  }
  return true;
}

// Merges `src` into `dst`. Nodes identical to an existing dst node are
// unified (flows branched off a common prefix share it); name
// collisions between distinct nodes are renamed, with references inside
// the remainder of `src` (and `rename`d tips) following. Relies on
// flow graphs being stored children-first, so every input reference
// points at an already-processed node.
Status MergeGraph(GraphDef* dst, const GraphDef& src,
                  std::map<std::string, std::string>* rename) {
  for (const NodeDef& node : src.nodes()) {
    NodeDef copy = node;
    for (auto& input : copy.inputs) {
      auto it = rename->find(input);
      if (it != rename->end()) input = it->second;
    }
    const NodeDef* existing = dst->FindNode(copy.name);
    if (existing != nullptr && SameNode(*existing, copy)) continue;
    if (existing != nullptr) {
      const std::string fresh = dst->UniqueName(copy.name);
      (*rename)[copy.name] = fresh;
      copy.name = fresh;
    }
    RETURN_IF_ERROR(dst->AddNode(std::move(copy)));
  }
  return OkStatus();
}

}  // namespace

const IteratorStatsSnapshot* RunReport::FindNode(
    const std::string& name) const {
  for (const auto& s : node_stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Flow::Flow()
    : status_(FailedPreconditionError(
          "unbound Flow: use Session::Files/Range/FromGraph")) {}

Flow::Flow(std::shared_ptr<internal::SessionState> state, GraphDef graph,
           std::string tip)
    : state_(std::move(state)),
      graph_(std::move(graph)),
      tip_(std::move(tip)) {}

Flow Flow::Append(NodeDef def) const {
  Flow out = *this;
  if (!out.status_.ok()) return out;
  if (def.name.empty()) def.name = out.graph_.UniqueName(def.op);
  const std::string name = def.name;
  out.status_ = out.graph_.AddNode(std::move(def));
  if (out.status_.ok()) out.tip_ = name;
  return out;
}

Flow Flow::AppendAfterTip(NodeDef def) const {
  def.inputs = {tip_};
  return Append(std::move(def));
}

Flow Flow::TfRecord() const {
  NodeDef def;
  def.op = "tfrecord";
  return AppendAfterTip(std::move(def));
}

Flow Flow::Interleave(int cycle_length, int parallelism,
                      int block_length) const {
  NodeDef def;
  def.op = "interleave";
  def.attrs[kAttrCycleLength] = AttrValue(cycle_length);
  def.attrs[kAttrParallelism] = AttrValue(parallelism);
  def.attrs[kAttrBlockLength] = AttrValue(block_length);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Map(const std::string& udf, int parallelism,
               bool deterministic) const {
  NodeDef def;
  def.op = "map";
  def.attrs[kAttrUdf] = AttrValue(udf);
  def.attrs[kAttrParallelism] = AttrValue(parallelism);
  def.attrs[kAttrDeterministic] = AttrValue(deterministic);
  return AppendAfterTip(std::move(def));
}

Flow Flow::SequentialMap(const std::string& udf) const {
  NodeDef def;
  def.op = "map";
  def.attrs[kAttrUdf] = AttrValue(udf);
  def.attrs[kAttrParallelism] = AttrValue(1);
  def.attrs[kAttrTunable] = AttrValue(false);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Filter(const std::string& udf) const {
  NodeDef def;
  def.op = "filter";
  def.attrs[kAttrUdf] = AttrValue(udf);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Shuffle(int64_t buffer_size, int64_t seed) const {
  NodeDef def;
  def.op = "shuffle";
  def.attrs[kAttrBufferSize] = AttrValue(buffer_size);
  def.attrs[kAttrSeed] = AttrValue(seed);
  return AppendAfterTip(std::move(def));
}

Flow Flow::ShuffleAndRepeat(int64_t buffer_size, int64_t count,
                            int64_t seed) const {
  NodeDef def;
  def.op = "shuffle_and_repeat";
  def.attrs[kAttrBufferSize] = AttrValue(buffer_size);
  def.attrs[kAttrCount] = AttrValue(count);
  def.attrs[kAttrSeed] = AttrValue(seed);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Repeat(int64_t count) const {
  NodeDef def;
  def.op = "repeat";
  def.attrs[kAttrCount] = AttrValue(count);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Take(int64_t count) const {
  NodeDef def;
  def.op = "take";
  def.attrs[kAttrCount] = AttrValue(count);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Skip(int64_t count) const {
  NodeDef def;
  def.op = "skip";
  def.attrs[kAttrCount] = AttrValue(count);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Batch(int64_t batch_size, bool drop_remainder) const {
  NodeDef def;
  def.op = "batch";
  def.attrs[kAttrBatchSize] = AttrValue(batch_size);
  def.attrs[kAttrDropRemainder] = AttrValue(drop_remainder);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Prefetch(int64_t buffer_size) const {
  NodeDef def;
  def.op = "prefetch";
  def.attrs[kAttrBufferSize] = AttrValue(buffer_size);
  return AppendAfterTip(std::move(def));
}

Flow Flow::Cache() const {
  NodeDef def;
  def.op = "cache";
  return AppendAfterTip(std::move(def));
}

Flow Flow::Combine(const std::string& op, const std::vector<Flow>& inputs) {
  Flow out;
  if (inputs.size() < 2) {
    out.status_ = InvalidArgumentError(op + " needs at least two flows");
    return out;
  }
  out = inputs[0];
  if (!out.status_.ok()) return out;
  std::vector<std::string> tips = {out.tip_};
  for (size_t i = 1; i < inputs.size(); ++i) {
    const Flow& in = inputs[i];
    if (!in.status_.ok()) {
      out.status_ = in.status_;
      return out;
    }
    if (in.state_ != out.state_) {
      out.status_ =
          InvalidArgumentError(op + ": flows belong to different sessions");
      return out;
    }
    std::map<std::string, std::string> rename;
    out.status_ = MergeGraph(&out.graph_, in.graph_, &rename);
    if (!out.status_.ok()) return out;
    auto it = rename.find(in.tip_);
    tips.push_back(it == rename.end() ? in.tip_ : it->second);
  }
  NodeDef def;
  def.op = op;
  def.inputs = std::move(tips);
  return out.Append(std::move(def));
}

Flow Flow::Zip(const std::vector<Flow>& inputs) {
  return Combine("zip", inputs);
}

Flow Flow::Concatenate(const std::vector<Flow>& inputs) {
  return Combine("concatenate", inputs);
}

Flow Flow::Named(const std::string& name) const {
  Flow out = *this;
  if (!out.status_.ok()) return out;
  if (name.empty()) {
    out.status_ = InvalidArgumentError("Named: empty name");
    return out;
  }
  if (name == out.tip_) return out;
  if (out.graph_.FindNode(name) != nullptr) {
    out.status_ = InvalidArgumentError("Named: name already in use: " + name);
    return out;
  }
  // The tip is always the most recently appended node, so nothing in
  // this flow's graph references it yet.
  out.graph_.MutableNode(out.tip_)->name = name;
  out.tip_ = name;
  return out;
}

StatusOr<GraphDef> Flow::Graph() const {
  RETURN_IF_ERROR(status_);
  if (state_ == nullptr) {
    return FailedPreconditionError("Flow has no session");
  }
  GraphDef graph = graph_;
  graph.SetOutput(tip_);
  RETURN_IF_ERROR(graph.Validate());
  return graph;
}

JobHandle Flow::Submit(JobOptions options) const {
  auto graph_or = Graph();
  if (!graph_or.ok()) return JobHandle(graph_or.status());
  runtime::JobPtr job = internal::GetExecutor(*state_).Submit(
      std::move(graph_or).value(), std::move(options));
  return JobHandle(state_, std::move(job));
}

StatusOr<RunReport> Flow::Run(const RunOptions& options) const {
  // Sugar over the async job API: one submission, blocked on. The
  // executor's driver reproduces the classic inline sequence (warmup
  // window on the same iterator tree, stats reset, measured window),
  // and a job running alone is never arbitrated, so the report and the
  // produced elements match the pre-executor blocking path.
  JobOptions jopts;
  jopts.run = options;
  return Submit(std::move(jopts)).Wait();
}

OptimizedFlow Flow::MakeOptimizedFlow(
    std::shared_ptr<internal::SessionState> state, OptimizeResult result) {
  Flow flow(std::move(state), result.graph, result.graph.output());
  return OptimizedFlow{std::move(result), std::move(flow)};
}

StatusOr<OptimizedFlow> Flow::Optimize(OptimizeOptions options) const {
  ASSIGN_OR_RETURN(GraphDef graph, Graph());
  PlumberOptimizer optimizer(std::move(options),
                             internal::MakePipelineOptions(*state_),
                             state_->options.machine);
  ASSIGN_OR_RETURN(OptimizeResult result, optimizer.Optimize(graph));
  return MakeOptimizedFlow(state_, std::move(result));
}

StatusOr<OptimizedFlow> Flow::OptimizeWith(const std::string& schedule,
                                           OptimizeOptions options) const {
  options.schedule = schedule;
  return Optimize(std::move(options));
}

StatusOr<TraceSnapshot> Flow::Trace(double trace_seconds) const {
  ASSIGN_OR_RETURN(GraphDef graph, Graph());
  ASSIGN_OR_RETURN(auto pipeline,
                   Pipeline::Create(std::move(graph),
                                    internal::MakePipelineOptions(*state_)));
  TraceOptions topts;
  topts.trace_seconds = trace_seconds;
  topts.machine = state_->options.machine;
  const TraceSnapshot trace = CaptureTrace(*pipeline, topts);
  pipeline->Cancel();
  return trace;
}

StatusOr<PipelineModel> Flow::Diagnose(double trace_seconds) const {
  ASSIGN_OR_RETURN(TraceSnapshot trace, Trace(trace_seconds));
  return PipelineModel::Build(trace, &state_->udfs);
}

}  // namespace plumber
