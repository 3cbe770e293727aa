#include "src/core/multi_job_planner.h"

#include <algorithm>
#include <limits>

#include "src/core/rewriter.h"
#include "src/pipeline/ops.h"

namespace plumber {
namespace {

// Cores needed to run this demand at unit rate: sum 1/R_i over every
// costed stage — sequential stages occupy a core too, they just cannot
// exceed one (the cap below).
double CoresPerUnitRate(const JobDemand& demand) {
  double cost = 0;
  for (const MaxMinStage& stage : demand.stages) {
    if (stage.rate_per_core <= 0) continue;
    cost += 1.0 / stage.rate_per_core;
  }
  return cost;
}

// The job's rate ceiling: its sequential stages (theta <= 1) and the
// integer caps on its parallel stages both bound the useful rate.
double RateCap(const JobDemand& demand) {
  double cap = std::numeric_limits<double>::infinity();
  for (const MaxMinStage& stage : demand.stages) {
    if (stage.rate_per_core <= 0) continue;
    if (stage.sequential) {
      cap = std::min(cap, stage.rate_per_core);
      continue;
    }
    auto it = demand.max_parallelism.find(stage.name);
    if (it != demand.max_parallelism.end()) {
      cap = std::min(cap, stage.rate_per_core * std::max(1, it->second));
    }
  }
  return cap;
}

// The job's preemption floor: one core per costed stage, the grant the
// integerizer hands out no matter how small theta is (a zero-worker
// pool would deadlock, not pause). Tier budgeting reserves this for
// lower-priority tiers so a hungry tier parks them, never starves them.
double FloorCores(const JobDemand& demand) {
  double floor = 0;
  for (const MaxMinStage& stage : demand.stages) {
    if (stage.rate_per_core > 0) floor += 1;
  }
  return floor;
}

}  // namespace

MultiJobPlan PlanMultiJobAllocation(const std::vector<JobDemand>& demands,
                                    double num_cores) {
  MultiJobPlan out;
  if (demands.empty() || num_cores <= 0) return out;

  struct Entry {
    const JobDemand* demand;
    double cost;    // cores per unit rate
    double cap;     // rate ceiling (sequential stages + integer knobs)
    double weight;  // fair-share multiplier within the tier
    double rate = 0;
  };
  std::vector<Entry> entries;
  entries.reserve(demands.size());
  for (const JobDemand& demand : demands) {
    entries.push_back(Entry{&demand, CoresPerUnitRate(demand),
                            RateCap(demand),
                            demand.weight > 0 ? demand.weight : 1.0});
  }

  // Group the costed demands by tier, ascending: lower tiers (more
  // latency-critical SLO classes) drink first.
  std::map<int, std::vector<Entry*>> tiers;
  for (Entry& e : entries) {
    if (e.cost > 0) tiers[e.demand->tier].push_back(&e);
  }

  double remaining = num_cores;
  bool first_tier = true;
  for (auto& [tier, group] : tiers) {
    // Reserve the preemption floor of every tier still waiting, so
    // this tier can park them (min 1 worker per stage) but not starve
    // them. When even the floors oversubscribe the machine, the tier
    // budget degrades gracefully to whatever is physically left — the
    // integerizer overcommits min-1 grants exactly like the
    // single-pipeline planner does.
    double reserved = 0;
    for (const auto& [later_tier, later_group] : tiers) {
      if (later_tier <= tier) continue;
      for (const Entry* e : later_group) reserved += FloorCores(*e->demand);
    }
    double tier_floor = 0;
    for (const Entry* e : group) tier_floor += FloorCores(*e->demand);
    double budget = std::max(0.0, remaining - reserved);
    if (budget < tier_floor) budget = std::min(tier_floor, remaining);

    // Weighted water-fill within the tier: equalize the normalized
    // rate y = X_j / w_j. A job costs (w_j * cost_j) cores per unit of
    // y; its cap in normalized terms is cap_j / w_j. Jobs frozen at
    // their cap release the surplus back into the tier's pool (work
    // conservation within the tier).
    std::vector<Entry*> active = group;
    double pool = budget;
    while (!active.empty()) {
      double total_cost = 0;
      for (const Entry* e : active) total_cost += e->weight * e->cost;
      const double waterline = std::max(0.0, pool) / total_cost;
      bool froze = false;
      for (auto it = active.begin(); it != active.end();) {
        if ((*it)->cap / (*it)->weight <= waterline) {
          (*it)->rate = (*it)->cap;
          pool -= (*it)->cap * (*it)->cost;
          it = active.erase(it);
          froze = true;
        } else {
          ++it;
        }
      }
      if (!froze) {
        for (Entry* e : active) e->rate = waterline * e->weight;
        if (first_tier) out.fair_rate = waterline;
        break;
      }
    }
    first_tier = false;

    // What this tier actually drank flows out of the shared budget;
    // anything a capped tier could not absorb remains for the next
    // tier (work conservation across tiers). Consumption never counts
    // below the tier's floor — those min-1 grants happen regardless.
    double consumed = 0;
    for (const Entry* e : group) {
      consumed += std::max(e->rate * e->cost, FloorCores(*e->demand));
    }
    remaining = std::max(0.0, remaining - consumed);
  }

  // Per-job: split the job's budget across its own stages with the
  // single-pipeline maximin solver, then integerize under the job's
  // configured knobs.
  for (Entry& e : entries) {
    LpPlan plan;
    const double budget = e.rate * e.cost;
    if (!e.demand->stages.empty() && budget > 0) {
      const MaxMinSolution solution =
          SolveMaxMin(e.demand->stages, budget);
      plan = PlanFromMaxMin(e.demand->stages, solution, budget,
                            e.demand->max_parallelism);
      out.cores_used += solution.cores_used;
    } else if (!e.demand->stages.empty()) {
      // Budget squeezed to zero (a parked tier under extreme
      // oversubscription): grant the floor explicitly so the governor
      // still receives a target of 1 instead of silence (which would
      // mean "configured knobs", i.e. no preemption at all).
      for (const MaxMinStage& stage : e.demand->stages) {
        plan.theta[stage.name] = stage.sequential ? 1 : 0;
        if (!stage.sequential) plan.parallelism[stage.name] = 1;
      }
    }
    out.jobs[e.demand->job_id] = std::move(plan);
  }
  out.unused_cores = std::max(0.0, num_cores - out.cores_used);
  return out;
}

JobDemand DemandFromGraph(std::string job_id, const GraphDef& graph,
                          std::string* warning) {
  JobDemand demand;
  demand.job_id = std::move(job_id);
  // Traced mode is all-or-nothing: mixing measured rates with the
  // uniform-1.0 guess inside one job would let a fictitious unit-rate
  // stage (cost 1/1.0) dwarf every real stage measured in the
  // thousands per second, so a single stray attr must not distort the
  // split. A graph the optimizer stamped (kAttrTracedRate anywhere)
  // contributes only its stamped nodes as stages; anything unstamped
  // was off the traced critical path and costs ~nothing — but an
  // unstamped TUNABLE node above parallelism 1 then keeps its
  // configured workers unarbitrated, which callers deserve to hear
  // about (see the header contract); `warning` reports that partial
  // coverage.
  bool traced = false;
  for (const NodeDef& node : graph.nodes()) {
    if (node.GetDouble(kAttrTracedRate, 0.0) > 0) {
      traced = true;
      break;
    }
  }
  if (traced) {
    for (const NodeDef& node : graph.nodes()) {
      const double rate = node.GetDouble(kAttrTracedRate, 0.0);
      if (rate <= 0) continue;
      MaxMinStage stage;
      stage.name = node.name;
      stage.rate_per_core = rate;
      const bool tunable = OpSupportsParallelism(node.op) &&
                           node.GetBool(kAttrTunable, true);
      stage.sequential = !tunable;
      demand.stages.push_back(std::move(stage));
      if (tunable) {
        demand.max_parallelism[node.name] =
            std::max(1, static_cast<int>(node.GetInt(kAttrParallelism, 1)));
      }
    }
    if (warning != nullptr) {
      std::vector<std::string> unstamped;
      for (const std::string& node : rewriter::TunableNodes(graph)) {
        const NodeDef* def = graph.FindNode(node);
        // At parallelism 1 the node already sits at the arbiter's
        // min-1 floor, so skipping it grants nothing extra.
        if (def->GetDouble(kAttrTracedRate, 0.0) <= 0 &&
            def->GetInt(kAttrParallelism, 1) > 1) {
          unstamped.push_back(node);
        }
      }
      if (!unstamped.empty()) {
        *warning = "graph '" + demand.job_id + "' is partially traced: " +
                   std::to_string(unstamped.size()) +
                   " tunable node(s) without a traced rate (first: '" +
                   unstamped.front() +
                   "') keep their configured parallelism unarbitrated; "
                   "re-optimize so every tunable stage is stamped";
      }
    }
    return demand;
  }
  for (const std::string& node : rewriter::TunableNodes(graph)) {
    MaxMinStage stage;
    stage.name = node;
    stage.rate_per_core = 1.0;  // untraced: assume uniform per-core rates
    demand.stages.push_back(std::move(stage));
    const NodeDef* def = graph.FindNode(node);
    demand.max_parallelism[node] =
        std::max(1, static_cast<int>(def->GetInt(kAttrParallelism, 1)));
  }
  return demand;
}

}  // namespace plumber
