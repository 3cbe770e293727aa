// The Plumber optimizer: trace -> model -> pass schedule -> rewrite.
//
// This is the "automatic front-end to the tracer" of paper §1/§4.1 and
// the pipeline-optimizer tool of §B. The rewrites themselves live in
// src/core/passes/ (OptimizerPass implementations resolved through
// PassRegistry); Optimize parses a PassSchedule — by default
// "parallelism,prefetch,cache,parallelism", which reproduces the
// original 2x-iterated three-pass loop — and runs it against an
// OptimizationContext. PickBest implements the pick_best annotation
// (§B, Fig. 11): trace several signature-equivalent pipelines, optimize
// each, return the fastest.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/passes/pass.h"
#include "src/core/passes/pass_registry.h"
#include "src/core/planner.h"
#include "src/core/rewriter.h"
#include "src/core/tracer.h"

namespace plumber {

struct OptimizeOptions {
  MachineSpec machine;
  // Execution environment. The optimizer derives the PipelineOptions
  // for every pipeline it instantiates from these fields plus `machine`
  // in exactly one place (MakePipelineOptions below), so cpu_scale,
  // seed, and the memory budget cannot diverge between the traced
  // pipeline and the planned machine.
  SimFilesystem* fs = nullptr;
  const UdfRegistry* udfs = nullptr;
  uint64_t seed = 42;
  CpuWorkModel work_model = CpuWorkModel::kTimed;
  double trace_seconds = 0.3;
  // Pass schedule, e.g. "parallelism,prefetch,cache,parallelism"
  // (names resolved through PassRegistry::Global()). "" runs no passes:
  // the input is traced once and returned unchanged.
  std::string schedule = kDefaultPassSchedule;
  LpPlanOptions lp_options;
  // Evaluation window used by PickBest to compare variants.
  double evaluate_seconds = 0.3;
  // Warmup window run on the same iterator before the PickBest
  // evaluation. The paper (§B) notes cache cold-start masks the benefit
  // of a cacheable variant during one epoch; Plumber compares variants
  // at steady state, which the warmup establishes here.
  double evaluate_warmup_seconds = 0.3;
  // Cache-fill window before a steady-state re-trace of a pipeline
  // with an injected cache (§B truncation trick).
  double cache_warmup_seconds = 0.4;

  // The single place instantiation options are derived from the
  // machine + environment (tracing on, cache budget = machine memory).
  PipelineOptions MakePipelineOptions() const;
};

struct OptimizeResult {
  GraphDef graph;
  LpPlan plan;                 // last parallelism pass's LP plan
  CacheDecision cache;         // last cache pass's decision
  PrefetchDecision prefetch;   // last prefetch pass's decision
  int shard_count = 0;         // shard_sources pass (0 = unsharded)
  double traced_rate = 0;      // observed rate in the final trace
  // One report per scheduled pass, in execution order: what each pass
  // decided and whether it rewrote the graph.
  std::vector<PassReport> pass_reports;
  std::vector<std::string> log;
  int picked_variant = 0;      // PickBest only
};

class PlumberOptimizer {
 public:
  explicit PlumberOptimizer(OptimizeOptions options);

  // Optimizes a single pipeline program.
  StatusOr<OptimizeResult> Optimize(const GraphDef& input) const;

  // Traces and optimizes each signature-equivalent variant, then picks
  // the fastest under a benchmark run.
  StatusOr<OptimizeResult> PickBest(
      const std::vector<GraphDef>& variants) const;

 private:
  StatusOr<std::unique_ptr<Pipeline>> MakePipeline(GraphDef graph) const;

  OptimizeOptions options_;
};

}  // namespace plumber
