#include "src/core/optimizer.h"

#include <sstream>

#include "src/core/multi_job_planner.h"
#include "src/util/logging.h"

namespace plumber {

namespace {

// PickBest's evaluation window per variant.
constexpr double kEvaluateSeconds = 0.3;
// Warmup run on the same iterator before each PickBest evaluation. The
// paper (§B) notes cache cold-start masks the benefit of a cacheable
// variant during one epoch; Plumber compares variants at steady state,
// which the warmup establishes here.
constexpr double kEvaluateWarmupSeconds = 0.8;

}  // namespace

PlumberOptimizer::PlumberOptimizer(OptimizeOptions options,
                                   PipelineOptions pipeline_options,
                                   MachineSpec machine)
    : options_(std::move(options)),
      pipeline_options_(std::move(pipeline_options)),
      machine_(std::move(machine)) {
  // An explicit per-call bandwidth wins.
  if (options_.lp_options.network_bandwidth <= 0) {
    options_.lp_options.network_bandwidth = machine_.nic.max_bandwidth;
  }
}

StatusOr<OptimizeResult> PlumberOptimizer::Optimize(
    const GraphDef& input) const {
  ASSIGN_OR_RETURN(const std::vector<const OptimizerPass*> schedule,
                   ParsePassSchedule(options_.schedule));
  OptimizationContext ctx(input, options_, pipeline_options_, machine_);
  OptimizeResult result;
  result.pass_reports.reserve(schedule.size());
  for (const OptimizerPass* pass : schedule) {
    const int traces_before = ctx.traces();
    ASSIGN_OR_RETURN(PassReport report, pass->run(ctx));
    // Only the pass whose model access took a trace reports its rate.
    if (ctx.traces() > traces_before) {
      report.traced_rate = ctx.last_model()->observed_rate();
    }
    const std::string name = pass->name;
    // Fold the typed decisions into the flat result fields (last pass
    // of each kind wins, matching the pre-framework optimizer where the
    // final LP plan overwrote earlier ones).
    if (name == "parallelism") result.plan = report.plan;
    if (name == "prefetch") result.prefetch = report.prefetch;
    if (name == "cache" &&
        (report.cache.feasible || !report.cache.candidates.empty())) {
      result.cache = report.cache;
    }
    if (name == "shard_sources" && report.shard_count > 0) {
      result.shard_count = report.shard_count;
    }
    result.log.push_back(report.pass + ": " + report.summary);
    result.pass_reports.push_back(std::move(report));
  }
  const PipelineModel* model = ctx.last_model();
  if (model == nullptr) {
    // Nothing in the schedule consulted a model (e.g. the empty
    // schedule): still trace once so traced_rate reports the input's
    // observed rate.
    ASSIGN_OR_RETURN(model, ctx.Model());
  } else {
    // Record the measured per-core stage rates in the graph so the
    // multi-job arbiter can water-fill from real demand instead of its
    // uniform fallback when this program is later Submit()ed alongside
    // others. Only after a real schedule: the empty schedule contracts
    // to return the input byte-for-byte unchanged. Reads the model the
    // schedule left, even one a trailing shard_sources invalidated:
    // stamping never adds a trace.
    for (const MaxMinStage& stage : model->LpStages()) {
      if (ctx.graph().FindNode(stage.name) != nullptr &&
          stage.rate_per_core > 0) {
        RETURN_IF_ERROR(
            rewriter::SetTracedRate(&ctx.graph(), stage.name,
                                    stage.rate_per_core));
      }
    }
    // Traced demand is all-or-nothing per graph (see the
    // DemandFromGraph contract): if the model's stages didn't cover
    // every tunable node, the uncovered ones will dodge multi-job
    // arbitration later. Surface that here, at stamping time, through
    // the pass report path.
    std::string warning;
    (void)DemandFromGraph("optimize", ctx.graph(), &warning);
    if (!warning.empty()) {
      PLOG(Warning) << "optimizer: " << warning;
      result.log.push_back("traced-rates: WARNING " + warning);
    }
  }
  result.graph = std::move(ctx.graph());
  result.traced_rate = model->observed_rate();
  return result;
}

StatusOr<OptimizeResult> PlumberOptimizer::PickBest(
    const std::vector<GraphDef>& variants) const {
  if (variants.empty()) return InvalidArgumentError("no variants");
  StatusOr<OptimizeResult> best = InvalidArgumentError("unset");
  double best_rate = -1;
  // Failed variants are recorded, not silently skipped: the winner's
  // log carries every failure, and if nothing survives the error below
  // names each variant's failure instead of a generic "none worked".
  std::vector<std::string> failures;
  Status richest = OkStatus();
  const auto record_failure = [&](size_t variant, const char* stage,
                                  const Status& status) {
    failures.push_back("variant " + std::to_string(variant) + " " + stage +
                       " failed: " + status.ToString());
    // Keep the most informative status for the all-failed error: the
    // one with the longest message (ties: first seen).
    if (richest.ok() ||
        status.message().size() > richest.message().size()) {
      richest = status;
    }
  };
  for (size_t i = 0; i < variants.size(); ++i) {
    auto result_or = Optimize(variants[i]);
    if (!result_or.ok()) {
      record_failure(i, "optimize", result_or.status());
      continue;
    }
    // Evaluate the optimized variant under a benchmark run.
    auto pipeline_or = Pipeline::Create(result_or->graph, pipeline_options_);
    if (!pipeline_or.ok()) {
      record_failure(i, "instantiation", pipeline_or.status());
      continue;
    }
    auto iterator_or = (*pipeline_or)->MakeIterator();
    if (!iterator_or.ok()) {
      record_failure(i, "iterator creation", iterator_or.status());
      continue;
    }
    auto iterator = std::move(iterator_or).value();
    // Warm any injected cache on the same iterator tree, then freeze it
    // (§B truncation trick) so variants are compared at steady state,
    // not during cache fill.
    RunOptions warmup;
    warmup.max_seconds = kEvaluateWarmupSeconds;
    RunIterator(iterator.get(), warmup);
    (*pipeline_or)->SimulateSteadyState();
    RunOptions ropts;
    ropts.max_seconds = kEvaluateSeconds;
    const RunResult run = RunIterator(iterator.get(), ropts);
    (*pipeline_or)->Cancel();
    if (run.batches_per_second > best_rate) {
      best_rate = run.batches_per_second;
      result_or->picked_variant = static_cast<int>(i);
      best = std::move(result_or);
    }
  }
  if (!best.ok()) {
    std::ostringstream os;
    os << "all " << variants.size() << " variants failed to optimize";
    for (const std::string& failure : failures) os << "; " << failure;
    return Status(richest.ok() ? StatusCode::kInternal : richest.code(),
                  os.str());
  }
  for (std::string& failure : failures) {
    best->log.push_back(std::move(failure));
  }
  return best;
}

}  // namespace plumber
