#include "src/core/passes/pass.h"

#include "src/core/optimizer.h"
#include "src/core/rewriter.h"

namespace plumber {

namespace {

// Cache-fill window before a steady-state re-trace of a pipeline with
// an injected cache (§B truncation trick).
constexpr double kCacheWarmupSeconds = 0.4;

}  // namespace

OptimizationContext::OptimizationContext(GraphDef graph,
                                         const OptimizeOptions& options)
    : options_(&options), graph_(std::move(graph)) {
  hook_ = [this](const GraphDef& g) -> StatusOr<TraceSnapshot> {
    ASSIGN_OR_RETURN(auto pipeline,
                     Pipeline::Create(g, options_->MakePipelineOptions()));
    TraceOptions topts;
    topts.trace_seconds = options_->trace_seconds;
    topts.machine = options_->machine;
    if (rewriter::HasOp(g, "cache")) {
      // Re-tracing a pipeline that now contains a cache: fill briefly,
      // then freeze the cache so the trace reflects steady state and
      // the LP can redistribute the cores the cached subtree frees
      // (paper §4.1 "Optimizer" / §B truncation trick).
      topts.warmup_seconds = kCacheWarmupSeconds;
      topts.simulate_cache_steady_state = true;
    }
    TraceSnapshot trace = CaptureTrace(*pipeline, topts);
    pipeline->Cancel();
    return trace;
  };
}

Status OptimizationContext::Retrace() {
  ASSIGN_OR_RETURN(trace_, hook_(graph_));
  ASSIGN_OR_RETURN(PipelineModel model,
                   PipelineModel::Build(trace_, options_->udfs));
  model_.emplace(std::move(model));
  last_traced_rate_ = model_->observed_rate();
  graph_changed_ = false;
  return OkStatus();
}

StatusOr<const PipelineModel*> OptimizationContext::LatestModel() {
  if (!model_.has_value()) RETURN_IF_ERROR(Retrace());
  return &*model_;
}

StatusOr<const PipelineModel*> OptimizationContext::FreshModel() {
  if (!model_.has_value() || graph_changed_) RETURN_IF_ERROR(Retrace());
  return &*model_;
}

}  // namespace plumber
