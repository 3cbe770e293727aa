// Reproduces Fig. 7: at each Plumber optimization step on ResNet,
// compare observed rate against the LP upper bound, the "local"
// allocator estimate, and AUTOTUNE's estimate. Expected shape: the LP
// bounds the observed rate within ~2x and tightens over time; the local
// estimate oscillates with the bottleneck; AUTOTUNE's estimate is
// unbounded / resource-oblivious.
#include <cstdio>

#include "bench/bench_util.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

void RunSetup(const MachineSpec& machine, int steps) {
  PrintHeader("Figure 7: ResNet LP predictions (" + machine.name + ")");
  Session session = MakeWorkloadSession(machine);
  auto workload = std::move(MakeWorkload("resnet18")).value();
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

  // Bound quality at convergence (paper: within 2x for ResNet).
  const auto& last = series.back();
  std::printf("final LP/observed ratio: %.2f (paper: <= ~2)\n",
              last.observed_rate > 0 ? last.lp_predicted / last.observed_rate
                                     : 0.0);
}

}  // namespace

int main() {
  RunSetup(MachineSpec::SetupA(), 20);
  RunSetup(MachineSpec::SetupB(), 20);
  return 0;
}
