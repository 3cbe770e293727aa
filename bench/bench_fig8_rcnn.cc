// Reproduces Fig. 8: RCNN on Setup A — convergence plus predictions.
// RCNN's heavy UDF is internally parallel (~3 cores per logical call),
// so thread over-allocation degrades performance and the LP's
// per-core-rate assumption overestimates peak (paper: up to ~4x), while
// AUTOTUNE's estimate swings with high variance.
#include <cstdio>

#include "bench/bench_util.h"

using namespace plumber;
using namespace plumber::bench;

int main() {
  const MachineSpec machine = MachineSpec::SetupA();
  PrintHeader("Figure 8: RCNN convergence + predictions (setup_a)");
  Session session = MakeWorkloadSession(machine);
  auto workload = std::move(MakeWorkload("rcnn")).value();
  const GraphDef naive = NaiveConfiguration(workload.graph);

  // Measured on a plain Pipeline, not Flow::Run: no executor, so no
  // governor, and the worker pools keep their SPSC edges.
  const GraphDef heuristic =
      HeuristicConfiguration(workload.graph, machine.num_cores);
  auto pipeline = std::move(Pipeline::Create(
                                heuristic, session.MakePipelineOptions()))
                      .value();
  RunOptions window;
  window.max_seconds = 0.4;
  const double heuristic_rate =
      RunPipeline(*pipeline, window).batches_per_second;
  pipeline->Cancel();

  StepSeriesOptions options;
  options.steps = 12;
  options.measure_seconds = 0.15;
  auto tuner = MakePlumberStepTuner();
  const auto series = RunStepTuning(session, naive, tuner.get(), options);

  Table table({"step", "observed", "LP max", "autotune est",
               "LP/observed"});
  for (const auto& p : series) {
    table.AddRow({std::to_string(p.step), Table::Num(p.observed_rate),
                  Table::Num(p.lp_predicted),
                  Table::Num(p.autotune_predicted),
                  Table::Num(p.observed_rate > 0
                                 ? p.lp_predicted / p.observed_rate
                                 : 0)});
  }
  table.Print();
  const auto& last = series.back();
  std::printf(
      "plumber final=%.2f mb/s, heuristic(all-cores)=%.2f mb/s\n"
      "LP overestimate factor at convergence: %.2f (paper: ~4x due to\n"
      "transparent UDF parallelism compounding with map parallelism)\n",
      last.observed_rate, heuristic_rate,
      last.observed_rate > 0 ? last.lp_predicted / last.observed_rate : 0.0);
  return 0;
}
