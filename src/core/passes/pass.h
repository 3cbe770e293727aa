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
  // Observed rate (minibatches/sec) of the trace the pass consumed;
  // 0 if the pass did not consult a model.
  double traced_rate = 0;
  std::string summary;     // one line: the decision, or why none

  // Typed decision payloads.
  LpPlan plan;                 // parallelism, shard_sources
  PrefetchDecision prefetch;   // prefetch
  CacheDecision cache;         // cache
  int shard_count = 0;         // shard_sources (0 = not sharded)
};

// The state a pass schedule threads through its passes: the current
// graph, the latest trace/model of it, the tuning knobs, the
// environment its pipelines are created in, the machine (the budget),
// and the re-trace hook passes use to refresh the model after rewrites.
// Passes mutate graph() and must call MarkGraphChanged() so later
// passes know the model is stale.
class OptimizationContext {
 public:
  using RetraceHook = std::function<StatusOr<TraceSnapshot>(const GraphDef&)>;

  // `options`, `pipeline_options` and `machine` must outlive the
  // context (PlumberOptimizer owns all four). The default re-trace hook
  // instantiates the graph with `pipeline_options` and captures a
  // bounded trace, reproducing the cache-steady-state semantics of the
  // pre-framework optimizer: once the graph contains a cache, re-traces
  // warm it for 0.4 s and freeze it (§B truncation trick) so the LP can
  // redistribute the cores the cached subtree frees.
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

  // Model of the most recent trace, tracing the current graph first if
  // none has been taken yet. The model may be stale with respect to
  // graph() — passes that plan from already-observed behavior (prefetch
  // sizing, cache placement) use this, mirroring the pre-framework
  // optimizer where one trace per iteration fed all three passes.
  StatusOr<const PipelineModel*> LatestModel();

  // Like LatestModel, but re-traces whenever the graph changed since
  // the last trace. Passes whose decisions depend on the rewritten
  // pipeline's empirical rates (the LP parallelism pass) use this.
  StatusOr<const PipelineModel*> FreshModel();

  // Declares that graph() was mutated; the next FreshModel re-traces.
  void MarkGraphChanged() { graph_changed_ = true; }

  const TraceSnapshot& trace() const { return trace_; }
  bool has_model() const { return model_.has_value(); }
  // Observed rate of the last trace taken (0 before any trace).
  double last_traced_rate() const { return last_traced_rate_; }

  // Test seam: replaces pipeline instantiation + tracing.
  void set_retrace_hook(RetraceHook hook) { hook_ = std::move(hook); }

 private:
  Status Retrace();

  const OptimizeOptions* options_;
  const PipelineOptions* pipeline_options_;
  const MachineSpec* machine_;
  GraphDef graph_;
  TraceSnapshot trace_;
  std::optional<PipelineModel> model_;
  bool graph_changed_ = false;
  double last_traced_rate_ = 0;
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

// The schedule PlumberOptimizer runs when none is specified. It
// reproduces the pre-framework optimizer exactly: one trace feeds LP
// parallelism, prefetch injection, and cache insertion; a second
// parallelism pass re-traces (at cache steady state, if one was
// injected) and redistributes the freed cores.
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
