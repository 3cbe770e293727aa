#include "src/core/provisioner.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace plumber {
namespace {

// Demands to run the pipeline at `target` with everything at or
// upstream of `cache_node` freed ("" = no cache).
ProvisionPlan PlanWithCache(const PipelineModel& model, double target,
                            const std::string& cache_node,
                            double materialized_bytes, double headroom) {
  ProvisionPlan plan;
  plan.cache_node = cache_node;
  plan.uses_cache = !cache_node.empty();
  plan.memory_needed =
      plan.uses_cache
          ? static_cast<uint64_t>(std::ceil(materialized_bytes * headroom))
          : 0;

  // Collect the freed subtree (the cache point and everything upstream).
  std::vector<std::string> freed;
  if (plan.uses_cache) {
    std::vector<std::string> frontier{cache_node};
    while (!frontier.empty()) {
      const std::string current = frontier.back();
      frontier.pop_back();
      freed.push_back(current);
      const NodeModel* nm = model.Find(current);
      if (nm == nullptr) continue;
      for (const auto& input : nm->inputs) frontier.push_back(input);
    }
  }
  auto is_freed = [&](const std::string& name) {
    return std::find(freed.begin(), freed.end(), name) != freed.end();
  };

  double cores = 0;
  for (const auto& node : model.nodes()) {
    if (node.negligible_cost || node.below_cache) continue;
    if (node.rate_per_core <= 0) continue;
    if (is_freed(node.name)) continue;
    const double theta = target / node.rate_per_core * headroom;
    if (!node.parallelizable && theta > 1.0) {
      plan.infeasible_reason =
          "sequential stage '" + node.name + "' sustains at most " +
          std::to_string(node.rate_per_core) + " minibatches/sec";
      return plan;
    }
    plan.theta[node.name] = theta;
    cores += theta;
  }
  plan.cores_needed = cores;
  plan.disk_bandwidth_needed =
      plan.uses_cache ? 0
                      : target * model.DiskBytesPerMinibatch() * headroom;
  plan.feasible = true;
  return plan;
}

// Plans are ordered by cores, then memory: the dominant cost dimension
// first, matching the paper's "minimize cost" framing.
bool Better(const ProvisionPlan& a, const ProvisionPlan& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (std::abs(a.cores_needed - b.cores_needed) > 1e-9) {
    return a.cores_needed < b.cores_needed;
  }
  return a.memory_needed < b.memory_needed;
}

}  // namespace

ProvisionPlan PlanProvision(const PipelineModel& model,
                            const ProvisionRequest& request) {
  const double headroom = std::max(1.0, request.headroom);
  ProvisionPlan best =
      PlanWithCache(model, request.target_rate, "", 0, headroom);
  if (!request.allow_cache) return best;
  ForEachCacheCandidate(model, [&](const NodeModel& node) {
    ProvisionPlan candidate =
        PlanWithCache(model, request.target_rate, node.name,
                      node.materialized_bytes, headroom);
    if (Better(candidate, best)) best = candidate;
  });
  return best;
}

CatalogChoice PickCheapestMachine(const PipelineModel& model,
                                  const ProvisionRequest& request,
                                  const std::vector<MachineOffer>& catalog) {
  CatalogChoice choice;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& offer : catalog) {
    // Try the cache-free plan and every cache plan; accept the first
    // that fits this offer's resource vector.
    std::vector<ProvisionPlan> plans;
    plans.push_back(PlanWithCache(model, request.target_rate, "", 0,
                                  std::max(1.0, request.headroom)));
    if (request.allow_cache) {
      ForEachCacheCandidate(model, [&](const NodeModel& node) {
        plans.push_back(PlanWithCache(model, request.target_rate, node.name,
                                      node.materialized_bytes,
                                      std::max(1.0, request.headroom)));
      });
    }
    std::sort(plans.begin(), plans.end(), Better);
    for (const auto& plan : plans) {
      if (!plan.feasible) continue;
      if (plan.cores_needed > offer.num_cores) continue;
      if (plan.memory_needed > offer.memory_bytes) continue;
      if (plan.disk_bandwidth_needed > offer.disk_bandwidth) continue;
      if (offer.cost_per_hour < best_cost) {
        best_cost = offer.cost_per_hour;
        choice.feasible = true;
        choice.offer = offer;
        choice.plan = plan;
        choice.cost_per_hour = offer.cost_per_hour;
      }
      break;  // cheapest feasible plan for this offer found
    }
  }
  return choice;
}

}  // namespace plumber
