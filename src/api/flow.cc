#include "src/api/flow.h"

#include <map>

#include "src/api/job_handle.h"
#include "src/api/session.h"

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

Flow Flow::Append(const std::string& op, const AddFn& add) const {
  Flow out = *this;
  if (!out.status_.ok()) return out;
  GraphBuilder builder(std::move(out.graph_));
  const std::string name = add(builder, builder.graph().UniqueName(op));
  out.graph_ = builder.graph();
  out.status_ = builder.status();
  if (out.status_.ok()) out.tip_ = name;
  return out;
}

Flow Flow::TfRecord() const {
  return Append("tfrecord", [&](GraphBuilder& b, const std::string& name) {
    return b.TfRecord(name, tip_);
  });
}

Flow Flow::Interleave(int cycle_length, int parallelism,
                      int block_length) const {
  return Append("interleave", [&](GraphBuilder& b, const std::string& name) {
    return b.Interleave(name, tip_, cycle_length, parallelism, block_length);
  });
}

Flow Flow::Map(const std::string& udf, int parallelism,
               bool deterministic) const {
  return Append("map", [&](GraphBuilder& b, const std::string& name) {
    return b.Map(name, tip_, udf, parallelism, deterministic);
  });
}

Flow Flow::SequentialMap(const std::string& udf) const {
  return Append("map", [&](GraphBuilder& b, const std::string& name) {
    return b.SequentialMap(name, tip_, udf);
  });
}

Flow Flow::Filter(const std::string& udf) const {
  return Append("filter", [&](GraphBuilder& b, const std::string& name) {
    return b.Filter(name, tip_, udf);
  });
}

Flow Flow::Shuffle(int64_t buffer_size, int64_t seed) const {
  return Append("shuffle", [&](GraphBuilder& b, const std::string& name) {
    return b.Shuffle(name, tip_, buffer_size, seed);
  });
}

Flow Flow::ShuffleAndRepeat(int64_t buffer_size, int64_t count,
                            int64_t seed) const {
  return Append("shuffle_and_repeat",
                [&](GraphBuilder& b, const std::string& name) {
                  return b.ShuffleAndRepeat(name, tip_, buffer_size, count,
                                            seed);
                });
}

Flow Flow::Repeat(int64_t count) const {
  return Append("repeat", [&](GraphBuilder& b, const std::string& name) {
    return b.Repeat(name, tip_, count);
  });
}

Flow Flow::Take(int64_t count) const {
  return Append("take", [&](GraphBuilder& b, const std::string& name) {
    return b.Take(name, tip_, count);
  });
}

Flow Flow::Skip(int64_t count) const {
  return Append("skip", [&](GraphBuilder& b, const std::string& name) {
    return b.Skip(name, tip_, count);
  });
}

Flow Flow::Batch(int64_t batch_size, bool drop_remainder) const {
  return Append("batch", [&](GraphBuilder& b, const std::string& name) {
    return b.Batch(name, tip_, batch_size, drop_remainder);
  });
}

Flow Flow::Prefetch(int64_t buffer_size) const {
  return Append("prefetch", [&](GraphBuilder& b, const std::string& name) {
    return b.Prefetch(name, tip_, buffer_size);
  });
}

Flow Flow::Cache() const {
  return Append("cache", [&](GraphBuilder& b, const std::string& name) {
    return b.Cache(name, tip_);
  });
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
  return out.Append(op, [&](GraphBuilder& b, const std::string& name) {
    return op == "zip" ? b.Zip(name, tips) : b.Concatenate(name, tips);
  });
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
