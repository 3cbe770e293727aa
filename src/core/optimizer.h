// The Plumber optimizer: trace -> model -> pass schedule -> rewrite.
//
// This is the "automatic front-end to the tracer" of paper §1/§4.1 and
// the pipeline-optimizer tool of §B. The rewrites themselves are the
// rows of the pass table in src/core/passes/ (OptimizerPasses());
// Optimize parses a schedule string into rows — by default
// "parallelism,prefetch,cache,parallelism", the original 2x-iterated
// three-pass loop, planned from one trace — and runs them against an
// OptimizationContext. PickBest implements the pick_best annotation
// (§B, Fig. 11): trace several signature-equivalent pipelines, optimize
// each, return the fastest.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/passes/pass.h"
#include "src/core/planner.h"
#include "src/core/rewriter.h"
#include "src/core/tracer.h"

namespace plumber {

// The optimizer's tuning knobs. The environment it traces in and the
// machine it plans for are PlumberOptimizer's constructor arguments.
struct OptimizeOptions {
  double trace_seconds = 0.3;
  // Pass schedule, e.g. "parallelism,prefetch,cache,parallelism"
  // (names of OptimizerPasses() rows; see ParsePassSchedule). "" runs
  // no passes: the input is traced once and returned unchanged.
  std::string schedule = kDefaultPassSchedule;
  LpPlanOptions lp_options;
};

struct OptimizeResult {
  GraphDef graph;
  LpPlan plan;                 // last parallelism pass's LP plan
  CacheDecision cache;         // last cache pass's decision
  PrefetchDecision prefetch;   // last prefetch pass's decision
  int shard_count = 0;         // shard_sources pass (0 = unsharded)
  // Observed rate of the last trace Optimize took: the input's, unless
  // shard_sources forced a re-trace of the sharded graph.
  double traced_rate = 0;
  // One report per scheduled pass, in execution order: what each pass
  // decided and whether it rewrote the graph.
  std::vector<PassReport> pass_reports;
  std::vector<std::string> log;
  int picked_variant = 0;      // PickBest only
};

class PlumberOptimizer {
 public:
  // Every pipeline the optimizer traces or evaluates is created with
  // `pipeline_options` (a Session passes its own: filesystem, UDFs,
  // seed, NIC, and the budgets it derives from its machine); `machine`
  // is the machine it plans for. lp_options.network_bandwidth defaults
  // to machine.nic's bandwidth, so planning and NIC metering agree.
  PlumberOptimizer(OptimizeOptions options, PipelineOptions pipeline_options,
                   MachineSpec machine);

  // Optimizes a single pipeline program.
  StatusOr<OptimizeResult> Optimize(const GraphDef& input) const;

  // Traces and optimizes each signature-equivalent variant, then picks
  // the fastest under a benchmark run.
  StatusOr<OptimizeResult> PickBest(
      const std::vector<GraphDef>& variants) const;

 private:
  OptimizeOptions options_;
  PipelineOptions pipeline_options_;
  MachineSpec machine_;
};

}  // namespace plumber
