#include "src/core/planner.h"

#include <algorithm>
#include <cmath>

#include "src/lp/maximin_allocator.h"

namespace plumber {
namespace {

LpPlan PlanFromStages(const std::vector<MaxMinStage>& stages,
                      const PipelineModel& model,
                      const LpPlanOptions& options) {
  LpPlan plan;
  const double cores = model.machine().num_cores;

  const double disk_demand = model.DiskBytesPerMinibatch();
  if (options.disk_bandwidth > 0 && disk_demand > 0) {
    plan.disk_bound_rate = options.disk_bandwidth / disk_demand;
  }
  const double network_demand = model.NetworkBytesPerMinibatch();
  if (options.network_bandwidth > 0 && network_demand > 0) {
    plan.network_bound_rate = options.network_bandwidth / network_demand;
  }

  const MaxMinSolution solution = SolveMaxMin(stages, cores);
  plan.cpu_bound_rate = solution.throughput;
  plan.cores_used = solution.cores_used;
  plan.core_limited = solution.core_limited;
  if (solution.bottleneck >= 0) {
    plan.bottleneck = stages[solution.bottleneck].name;
  }

  plan.predicted_rate = solution.throughput;
  if (plan.disk_bound_rate >= 0 &&
      plan.disk_bound_rate < plan.predicted_rate) {
    plan.predicted_rate = plan.disk_bound_rate;
    plan.disk_limited = true;
  }
  // The network cap applies after the disk cap; when the NIC is the
  // lower of the two it owns the bottleneck label.
  if (plan.network_bound_rate >= 0 &&
      plan.network_bound_rate < plan.predicted_rate) {
    plan.predicted_rate = plan.network_bound_rate;
    plan.network_limited = true;
    plan.disk_limited = false;
  }

  // Integer parallelism from fractional theta. Rounding every stage up
  // overcommits the LP's own core budget — theta 7.9 becomes 8 workers,
  // every near-zero stage becomes 1 more — so the extra threads contend
  // with the sequential stages and the consumer, and the "tuned"
  // pipeline can measure slower than its input. Grant floor(theta)
  // (min 1) to each parallelizable stage, then hand out any whole cores
  // the plan still has left by largest fractional remainder.
  double sequential_demand = 0;
  std::vector<std::pair<double, std::string>> remainders;
  int granted = 0;
  for (size_t i = 0; i < stages.size(); ++i) {
    plan.theta[stages[i].name] = solution.theta[i];
    const NodeModel* node = model.Find(stages[i].name);
    if (node == nullptr || !node->parallelizable) {
      sequential_demand += solution.theta[i];
      continue;
    }
    const double theta = solution.theta[i];
    const double whole = std::floor(theta + 1e-9);
    const int base = std::max<int>(1, static_cast<int>(whole));
    plan.parallelism[stages[i].name] = base;
    // A near-idle stage's minimum worker (theta < 1) is demand-free —
    // it mostly blocks — so it must not eat the budget ahead of the
    // bottleneck's fractional remainder.
    if (theta >= 1.0 - 1e-9) granted += base;
    const double frac = theta - whole;
    if (frac > 1e-6) remainders.emplace_back(frac, stages[i].name);
  }
  const int budget = std::max(
      1, static_cast<int>(std::floor(cores - sequential_demand + 1e-9)));
  std::sort(remainders.rbegin(), remainders.rend());
  for (const auto& [frac, name] : remainders) {
    if (granted >= budget) break;
    ++plan.parallelism[name];
    ++granted;
  }

  if (!options.io_curve.empty() && disk_demand > 0) {
    const double required_bw = plan.predicted_rate * disk_demand;
    plan.suggested_io_parallelism = std::max<int>(
        1,
        static_cast<int>(std::ceil(options.io_curve.InverseMin(required_bw))));
  }
  return plan;
}

}  // namespace

LpPlan PlanAllocation(const PipelineModel& model,
                      const LpPlanOptions& options) {
  LpPlan plan = PlanFromStages(model.LpStages(), model, options);
  // Stages excluded from the LP (behind a warm cache, or negligible
  // cost) must release any parallelism a previous pass granted them:
  // their threads do no useful work at steady state but still compete
  // for cores with the real bottleneck.
  for (const auto& node : model.nodes()) {
    if (!node.parallelizable) continue;
    if ((node.below_cache || node.negligible_cost) &&
        plan.parallelism.find(node.name) == plan.parallelism.end()) {
      plan.parallelism[node.name] = 1;
      plan.theta[node.name] = 0;
    }
  }
  return plan;
}

void ForEachCacheCandidate(const PipelineModel& model,
                           const std::function<void(const NodeModel&)>& fn) {
  for (const auto& node : model.nodes()) {
    if (!node.cacheable || node.materialized_bytes < 0) continue;
    fn(node);
  }
}

const char* CacheTierName(CacheTier tier) {
  switch (tier) {
    case CacheTier::kNone:
      return "none";
    case CacheTier::kMemory:
      return "memory";
    case CacheTier::kDisk:
      return "disk";
  }
  return "none";
}

CacheDecision PlanCache(const PipelineModel& model,
                        const CachePlanOptions& options,
                        const LpPlanOptions& lp_options) {
  CacheDecision decision;
  const bool has_disk =
      options.disk_free_bytes > 0 && options.disk_read_bandwidth > 0;
  // The disk guard's reference: the LP's prediction for the current,
  // uncached configuration.
  const double uncached_rate =
      has_disk ? PlanAllocation(model, lp_options).predicted_rate : 0;

  // Candidates come root-first, so the first fitting one is closest to
  // the root (greedy-optimal on chains).
  ForEachCacheCandidate(model, [&](const NodeModel& node) {
    CacheCandidate candidate;
    candidate.node = node.name;
    candidate.materialized_bytes = node.materialized_bytes;
    const bool fits_memory = options.memory_bytes > 0 &&
                             node.materialized_bytes <= options.memory_bytes;
    double serve_rate = 0;
    if (!fits_memory && has_disk &&
        node.materialized_bytes <= options.disk_free_bytes &&
        node.visit_ratio > 0 && node.bytes_per_element > 0) {
      // Serving the materialization re-reads visit_ratio elements of
      // bytes_per_element for every root minibatch.
      serve_rate = options.disk_read_bandwidth /
                   (node.visit_ratio * node.bytes_per_element);
    }
    const bool fits_disk = serve_rate > 0 && serve_rate >= uncached_rate;
    candidate.fits = fits_memory || fits_disk;
    decision.candidates.push_back(candidate);
    if (decision.feasible || !candidate.fits) return;
    decision.feasible = true;
    decision.tier = fits_memory ? CacheTier::kMemory : CacheTier::kDisk;
    decision.node = node.name;
    decision.materialized_bytes = node.materialized_bytes;
    decision.disk_serve_rate = serve_rate;
  });
  return decision;
}

PrefetchDecision PlanPrefetch(const PipelineModel& model) {
  PrefetchDecision decision;
  double used_cores = 0;
  for (const auto& node : model.nodes()) used_cores += node.observed_cores;
  const double total = std::max(1, model.machine().num_cores);
  decision.pipeline_idleness = std::clamp(1.0 - used_cores / total, 0.0, 1.0);
  bool has_root_prefetch = false;
  if (!model.nodes().empty() && model.nodes().front().op == "prefetch") {
    has_root_prefetch = true;
  }
  decision.inject_root = !has_root_prefetch;
  decision.root_buffer = std::clamp(
      static_cast<int>(std::ceil(decision.pipeline_idleness * total / 2)), 2,
      32);
  return decision;
}

}  // namespace plumber
