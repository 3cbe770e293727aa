// The optimizer pass framework (paper §4.1 "Optimizer", §B).
//
// The paper describes the optimizer as a fixed sequence of graph
// rewrites; this layer makes that literal. Each rewrite is a row of one
// table (OptimizerPasses()): a name, an optional follow-up, and a run
// function that mutates the graph held by an OptimizationContext and
// returns a typed PassReport. PlumberOptimizer::Optimize parses a
// schedule string into table rows and runs them in order, so ablations
// are schedule strings instead of bespoke flag combinations.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/model.h"
#include "src/core/planner.h"
#include "src/core/tracer.h"

namespace plumber {

struct OptimizeOptions;

// What one pass did: a human-readable summary plus the typed decision
// the pass produced (only the producing pass fills its field). Consumed
// by OptimizeResult::pass_reports, diagnose tooling, and the ablation
// bench.
struct PassReport {
  std::string pass;        // name of the pass that ran
  bool changed = false;    // true if the pass rewrote the graph
  // Observed rate (minibatches/sec) of the trace this pass's model
  // access took; 0 if the pass took no trace (it planned from the
  // model an earlier pass traced, or consulted none). Set by Optimize.
  double traced_rate = 0;
  std::string summary;     // one line: the decision, or why none

  // Typed decision payloads.
  LpPlan plan;                 // parallelism, shard_sources
  PrefetchDecision prefetch;   // prefetch
  CacheDecision cache;         // cache
  int shard_count = 0;         // shard_sources (0 = not sharded)
};

// The state a pass schedule threads through its passes: the current
// graph, a model of it, the tuning knobs, the environment its pipelines
// are created in, the machine (the budget), and the trace hook. The
// model is traced once, then kept in step with the graph by the passes
// that rewrite it (paper §4: the model predicts a rewrite instead of
// re-running it). A new parallelism or root prefetch changes no rate
// the LP reads, so it leaves the model as is; a cache edits it with
// PipelineModel::MarkCached; a rewrite that adds nodes no trace has
// seen (shard_sources) calls InvalidateModel, and the next Model()
// re-traces.
class OptimizationContext {
 public:
  using RetraceHook = std::function<StatusOr<TraceSnapshot>(const GraphDef&)>;

  // `options`, `pipeline_options` and `machine` must outlive the
  // context (PlumberOptimizer owns all four). The default trace hook
  // instantiates the graph with `pipeline_options` and captures a
  // bounded trace. A graph that already holds a cache (an input that
  // carries one, or a re-trace after sharding) is warmed for 0.4 s and
  // its cache frozen first (§B truncation trick), so the trace shows
  // the cache's steady state.
  OptimizationContext(GraphDef graph, const OptimizeOptions& options,
                      const PipelineOptions& pipeline_options,
                      const MachineSpec& machine);

  OptimizationContext(const OptimizationContext&) = delete;
  OptimizationContext& operator=(const OptimizationContext&) = delete;

  GraphDef& graph() { return graph_; }
  const GraphDef& graph() const { return graph_; }
  const OptimizeOptions& options() const { return *options_; }
  const PipelineOptions& pipeline_options() const {
    return *pipeline_options_;
  }
  const MachineSpec& machine() const { return *machine_; }

  // The model of graph(). Traces graph() only when there is no model
  // yet or the model was invalidated; otherwise returns the model the
  // passes kept in step with their rewrites.
  StatusOr<PipelineModel*> Model();

  // Declares that graph() gained nodes the model cannot describe; the
  // next Model() traces again.
  void InvalidateModel() { model_valid_ = false; }

  // The last model built, without tracing: nullptr before the first
  // trace, and after InvalidateModel still the model from before.
  const PipelineModel* last_model() const {
    return model_.has_value() ? &*model_ : nullptr;
  }
  // Traces taken so far.
  int traces() const { return traces_; }

  // Test seam: replaces pipeline instantiation + tracing.
  void set_retrace_hook(RetraceHook hook) { hook_ = std::move(hook); }

 private:
  const OptimizeOptions* options_;
  const PipelineOptions* pipeline_options_;
  const MachineSpec* machine_;
  GraphDef graph_;
  std::optional<PipelineModel> model_;
  bool model_valid_ = false;
  int traces_ = 0;
  RetraceHook hook_;
};

// One optimizer rewrite: a row of the pass table. Passes are stateless
// (all state lives in the context).
struct OptimizerPass {
  // The token used in schedule strings.
  const char* name;
  // Pass to schedule right after this one when generating schedules
  // (the default schedule, the ablation bench's cumulative sweep):
  // e.g. the cache pass wants a re-parallelism so the LP can
  // redistribute the cores a cache frees. nullptr = none. Purely a
  // scheduling hint — explicit schedule strings are run verbatim.
  const char* followup;
  // Runs the pass against the context's current graph. A pass that
  // decides not to rewrite returns an unchanged report (changed=false)
  // with the reason in summary; an error status aborts the schedule.
  StatusOr<PassReport> (*run)(OptimizationContext& ctx);
};

// The built-in passes in canonical order: parallelism, prefetch, cache,
// shard_sources. Generated schedules (the ablation bench's cumulative
// sweep) follow this order.
const std::vector<OptimizerPass>& OptimizerPasses();

// The schedule PlumberOptimizer runs when none is specified. One trace
// feeds all four passes: LP parallelism, prefetch injection and cache
// insertion plan from it, and the second parallelism pass re-solves
// the LP on the model the cache pass edited, redistributing the cores
// the cache freed.
inline constexpr char kDefaultPassSchedule[] =
    "parallelism,prefetch,cache,parallelism";

// Parses a comma-separated schedule ("parallelism, prefetch" —
// whitespace around names is ignored) into rows of OptimizerPasses().
// An empty string is the empty schedule; an empty component or an
// unknown pass name is InvalidArgument, and the error lists the known
// passes. Passes may repeat (the default schedule runs parallelism
// twice).
StatusOr<std::vector<const OptimizerPass*>> ParsePassSchedule(
    const std::string& spec);

}  // namespace plumber
