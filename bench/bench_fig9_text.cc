// Reproduces Fig. 9: Transformer and GNMT predictions on Setup A.
// Text pipelines have per-element costs so small that Iterator-model
// overhead dominates, so the LP (which only sees traced CPU work)
// overpredicts observed throughput by 2-8x; non-parallelizable stages
// (Filter for Transformer, ShuffleAndRepeat for GNMT) emerge as the
// ranked bottlenecks.
#include <cstdio>

#include "bench/bench_util.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

void RunWorkload(const std::string& name, int steps) {
  PrintHeader("Figure 9: " + name + " predictions (setup_a)");
  Session session = MakeWorkloadSession(MachineSpec::SetupA());
  auto workload = std::move(MakeWorkload(name)).value();
  const GraphDef naive = NaiveConfiguration(workload.graph);
  StepSeriesOptions options;
  options.steps = steps;
  options.measure_seconds = 0.15;
  auto tuner = MakePlumberStepTuner();
  const auto series = RunStepTuning(session, naive, tuner.get(), options);

  Table table({"step", "observed", "LP max", "local max", "autotune est",
               "LP/observed"});
  for (const auto& p : series) {
    table.AddRow({std::to_string(p.step), Table::Num(p.observed_rate),
                  Table::Num(p.lp_predicted), Table::Num(p.local_predicted),
                  Table::Num(p.autotune_predicted),
                  Table::Num(p.observed_rate > 0
                                 ? p.lp_predicted / p.observed_rate
                                 : 0)});
  }
  table.Print();

  // Report the final bottleneck according to Plumber's ranking (paper:
  // FilterDataset for Transformer, ShuffleAndRepeatDataset for GNMT —
  // stages Plumber cannot parallelize).
  auto model = std::move(session.FromGraph(naive).Diagnose(0.2)).value();
  std::printf("highest-cost non-parallelizable stages:\n");
  for (const auto& node : model.nodes()) {
    if (!node.parallelizable && node.cpu_seconds > 1e-4) {
      std::printf("  %s (%s): %.1f us/element, %.3f cores\n",
                  node.name.c_str(), node.op.c_str(),
                  node.service_seconds * 1e6, node.observed_cores);
    }
  }
}

}  // namespace

int main() {
  RunWorkload("transformer", 12);
  RunWorkload("gnmt", 12);
  return 0;
}
