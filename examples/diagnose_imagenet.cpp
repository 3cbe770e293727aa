// Interactive-style diagnosis of the ResNet/ImageNet pipeline: trace
// it, print the per-Dataset resource-accounted rates (paper Fig. 5),
// the bottleneck ranking, the LP allocation, and the cache candidates.
// This is the "tracer as explain-plan" use of Plumber.
#include <cstdio>

#include "src/core/plumber.h"
#include "src/util/table.h"
#include "src/workloads/workloads.h"

using namespace plumber;

int main() {
  auto workload = std::move(MakeWorkload("resnet18")).value();
  const MachineSpec machine = MachineSpec::SetupA();
  Session session = MakeWorkloadSession(machine);

  auto model_or = session.FromGraph(workload.graph).Diagnose(0.5);
  if (!model_or.ok()) {
    std::printf("diagnose failed: %s\n", model_or.status().ToString().c_str());
    return 1;
  }
  const PipelineModel& model = *model_or;

  std::printf("observed rate: %.2f minibatches/s over %.2fs\n\n",
              model.observed_rate(), model.wall_seconds());

  Table table({"dataset", "op", "visit ratio", "mb/s/core (Ri)",
               "cores used", "bytes/elem", "cardinality", "cacheable"});
  for (const auto& node : model.nodes()) {
    table.AddRow({node.name, node.op, Table::Num(node.visit_ratio, 1),
                  node.rate_per_core > 0 ? Table::Num(node.rate_per_core, 1)
                                         : "-",
                  Table::Num(node.observed_cores, 3),
                  Table::Num(node.bytes_per_element, 0),
                  node.cardinality >= 0 ? Table::Num(node.cardinality, 0)
                                        : "inf/unknown",
                  node.cacheable ? "yes" : "no"});
  }
  table.Print();

  std::printf("\nbottleneck ranking (slowest first):\n");
  int rank = 1;
  for (const auto& name : model.RankBottlenecks()) {
    const NodeModel* node = model.Find(name);
    std::printf("  %d. %s  (capacity %.1f mb/s at parallelism %d)\n",
                rank++, name.c_str(),
                node->rate_per_core * node->parallelism, node->parallelism);
  }

  const LpPlan plan = PlanAllocation(model);
  std::printf("\nLP allocation (%d cores): predicted max %.1f mb/s, "
              "bottleneck=%s\n",
              machine.num_cores, plan.predicted_rate,
              plan.bottleneck.c_str());
  for (const auto& [node, theta] : plan.theta) {
    std::printf("  theta[%s] = %.2f cores", node.c_str(), theta);
    auto it = plan.parallelism.find(node);
    if (it != plan.parallelism.end()) {
      std::printf("  -> set parallelism %d", it->second);
    }
    std::printf("\n");
  }

  std::printf("\ncache candidates (root-first):\n");
  CachePlanOptions copts;
  copts.memory_bytes = machine.memory_bytes;
  const CacheDecision cache = PlanCache(model, copts);
  for (const auto& candidate : cache.candidates) {
    std::printf("  %-12s %12.0f bytes  %s\n", candidate.node.c_str(),
                candidate.materialized_bytes,
                candidate.fits ? "fits" : "too big");
  }
  if (cache.feasible) {
    std::printf("decision: cache after %s\n", cache.node.c_str());
  } else {
    std::printf("decision: no cache fits in %.0f MB\n",
                machine.memory_bytes / 1e6);
  }

  // Run the full optimizer and report what each scheduled pass decided
  // (the structured PassReports).
  const std::string schedule = kDefaultPassSchedule;
  auto optimized = session.FromGraph(workload.graph).OptimizeWith(schedule);
  if (!optimized.ok()) {
    std::printf("\noptimize failed: %s\n",
                optimized.status().ToString().c_str());
    return 1;
  }
  std::printf("\noptimizer passes (schedule \"%s\"):\n", schedule.c_str());
  Table passes({"#", "pass", "traced mb/s", "rewrote", "decision"});
  int index = 1;
  for (const PassReport& report : optimized->pass_reports) {
    passes.AddRow({std::to_string(index++), report.pass,
                   report.traced_rate > 0 ? Table::Num(report.traced_rate, 1)
                                          : "-",
                   report.changed ? "yes" : "no", report.summary});
  }
  passes.Print();
  std::printf("traced rate of the input: %.2f minibatches/s\n",
              optimized->traced_rate);
  return 0;
}
