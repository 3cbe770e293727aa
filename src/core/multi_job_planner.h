// Multi-job core arbitration: one machine core budget split across N
// concurrently running pipeline graphs (the serving-side extension of
// paper §4.3's single-pipeline max-min allocation).
//
// Fairness model: *weighted* maximin over job rates, allocated in SLO
// *tiers*. Each job j exposes its parallelizable stages (rate-per-core
// R_i); running job j at rate X costs sum_i X / R_i cores, and a job's
// sequential stages cap its achievable rate. Within one tier,
// water-filling equalizes the weight-normalized rate X_j / w_j of
// every uncapped job — a weight-3 job targets 3x the rate (and so
// ~3x the cores) of a weight-1 peer — so no job starves while another
// hoards cores, and a job whose cap binds releases its surplus to the
// rest of its tier (work conservation within a tier).
//
// Tiers implement SLO preemption: tier 0 (interactive) is allocated
// first from the whole budget minus a *floor reservation* for every
// lower tier (one core per costed stage, so parked jobs keep
// progressing instead of deadlocking on a zero-worker pool); tier 1
// (batch) water-fills whatever tier 0 actually consumed the budget
// down to; and so on. Cores a capped tier cannot absorb flow to the
// next tier rather than idling (work conservation across tiers), and
// MultiJobPlan::unused_cores records what no job could absorb at all.
// With every demand in one tier at weight 1 the plan is bit-identical
// to the original unweighted maximin water-fill.
//
// Within each job the budget is then split across its stages by the
// existing single-pipeline solver, and integerized by the planner's
// PlanFromMaxMin (floor + largest remainder, min 1 worker per stage —
// the min-1 grant is the preemption floor — capped at the configured
// parallelism).
//
// Rates come from the traced PipelineModel when the optimizer stamped
// them into the graph (kAttrTracedRate); DemandFromGraph otherwise
// builds the untraced fallback (uniform rate 1 per tunable stage),
// under which the split degenerates to equal rates = cores
// proportional to stage counts.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/lp/maximin_allocator.h"
#include "src/pipeline/graph_def.h"

namespace plumber {

// One live job's demand on the shared machine.
struct JobDemand {
  std::string job_id;
  // Parallelizable stages (name + rate per core); sequential = true
  // entries cap the job's rate at R_i instead of consuming budget.
  std::vector<MaxMinStage> stages;
  // Upper bound on each stage's integer grant (the configured knob):
  // arbitration only ever scales a job down from what the user or
  // optimizer configured, never silently above it. Empty = uncapped.
  std::map<std::string, int> max_parallelism;
  // Weighted-fairness share multiplier within the job's tier (the
  // JobOptions::priority of the submitting job). <= 0 is treated as 1.
  double weight = 1.0;
  // Allocation tier (the SloClass ordinal when SLO preemption is on):
  // lower tiers are allocated first; higher tiers are guaranteed only
  // their floor (one core per stage) while a lower tier is hungry.
  int tier = 0;
};

struct MultiJobPlan {
  // The equalized weight-normalized rate of the *lowest populated
  // tier* (rate of a weight-1 job at its waterline); capped jobs run
  // below it, higher tiers at whatever budget flowed down to them.
  double fair_rate = 0;
  double cores_used = 0;
  // Budget no job could absorb (every demand frozen at its cap with
  // cores left over) — nonzero means the machine is genuinely larger
  // than the configured demand, not a scheduling loss.
  double unused_cores = 0;
  // Per-job plan: theta + integer parallelism grants, keyed by job_id.
  // The executor publishes each as its job's governor targets.
  std::map<std::string, LpPlan> jobs;
};

// Splits `num_cores` across the demands (see the tier/weight model
// above). Jobs with no parallelizable stages receive an empty plan
// (they run sequentially regardless).
MultiJobPlan PlanMultiJobAllocation(const std::vector<JobDemand>& demands,
                                    double num_cores);

// Demand from a graph. When the optimizer stamped traced per-core
// rates into the graph (kAttrTracedRate, via rewriter::SetTracedRate),
// each stamped node becomes a stage at its measured rate — tunable
// nodes as parallel stages capped at their configured parallelism
// attr, non-tunable stamped nodes as sequential rate caps — so
// unequal-demand jobs get unequal water-fill shares. Untraced graphs
// fall back to the uniform guess: every tunable node is one stage at
// rate 1, capped at its configured parallelism attr.
//
// Contract: traced mode is ALL-OR-NOTHING per graph. A single stamped
// node switches the whole graph to traced demand, and any *unstamped*
// tunable node is then excluded from the demand entirely — the
// arbiter neither grants it cores nor rewrites its knob, so it keeps
// its configured parallelism unarbitrated (a silent over-grant under
// contention when that parallelism is above 1). Mixing measured rates
// with the uniform-1.0 guess would be worse (a fictitious unit-rate
// stage dwarfs stages measured in the thousands/sec), so partial
// coverage is tolerated but flagged: when `warning` is non-null and a
// traced graph has an unstamped tunable node at parallelism > 1, it is
// filled with a one-line description (callers log it; the optimizer
// warns at stamping time through its result log). Unstamped nodes at
// parallelism 1 — e.g. stages behind a cache, which the final trace
// never rates — already sit at the arbiter's min-1 floor and escape
// nothing, so they do not warn. Full coverage, or the untraced
// fallback, leave `warning` untouched.
JobDemand DemandFromGraph(std::string job_id, const GraphDef& graph,
                          std::string* warning = nullptr);

}  // namespace plumber
