// Reproduces Fig. 6: sequential tuning of the ResNet pipeline on Setups
// A and B — Plumber's bottleneck-ranked steps vs. a random walk, with
// AUTOTUNE and HEURISTIC final configurations as reference lines.
// Expected shape: Plumber reaches peak throughput in 2-3x fewer steps
// than the random walk; AUTOTUNE ~= HEURISTIC at the plateau.
#include <cstdio>

#include "bench/bench_util.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

void RunSetup(const MachineSpec& machine, int steps, int reps) {
  PrintHeader("Figure 6: ResNet sequential tuning (" + machine.name + ")");
  Session session = MakeWorkloadSession(machine);
  auto workload = std::move(MakeWorkload("resnet18")).value();
  const GraphDef naive = NaiveConfiguration(workload.graph);

  StepSeriesOptions options;
  options.steps = steps;
  options.measure_seconds = 0.12;

  // Reference lines: heuristic and autotune final configurations.
  const GraphDef heuristic =
      HeuristicConfiguration(workload.graph, machine.num_cores);
  const double heuristic_rate = MeasureRate(session, heuristic, 0.4);
  // AUTOTUNE needs a trace of the naive pipeline first.
  auto model = std::move(session.FromGraph(naive).Diagnose(0.2)).value();
  AutotuneOptions aopts;
  aopts.max_parallelism = machine.num_cores;
  auto autotuned = std::move(AutotuneConfiguration(naive, model, aopts)).value();
  const double autotune_rate = MeasureRate(session, autotuned.graph, 0.4);

  // Step series, averaged over reps.
  std::vector<RunningStat> plumber_stats(steps), random_stats(steps);
  for (int rep = 0; rep < reps; ++rep) {
    options.seed = 100 + rep;
    auto plumber_tuner = MakePlumberStepTuner();
    const auto plumber_series =
        RunStepTuning(session, naive, plumber_tuner.get(), options);
    for (const auto& p : plumber_series) {
      plumber_stats[p.step].Add(p.observed_rate);
    }
    auto random_tuner = MakeRandomWalkTuner();
    const auto random_series =
        RunStepTuning(session, naive, random_tuner.get(), options);
    for (const auto& p : random_series) {
      random_stats[p.step].Add(p.observed_rate);
    }
  }

  Table table({"step", "plumber mb/s", "+-95%", "random mb/s", "+-95%",
               "autotune", "heuristic"});
  for (int s = 0; s < steps; ++s) {
    table.AddRow({std::to_string(s), Table::Num(plumber_stats[s].mean()),
                  Table::Num(plumber_stats[s].ConfidenceInterval95()),
                  Table::Num(random_stats[s].mean()),
                  Table::Num(random_stats[s].ConfidenceInterval95()),
                  Table::Num(autotune_rate), Table::Num(heuristic_rate)});
  }
  table.Print();

  // Convergence comparison: steps for each tuner to reach 90% of the
  // plumber plateau (the paper's "2-3x fewer steps" claim). A crossing
  // must be sustained for two consecutive steps so a single noisy
  // measurement does not count as convergence; a tuner that never
  // sustains the threshold is censored at the window length.
  const double plateau =
      (plumber_stats[steps - 1].mean() + plumber_stats[steps - 2].mean()) / 2;
  auto steps_to_converge = [&](const std::vector<RunningStat>& stats) {
    for (int s = 0; s + 1 < steps; ++s) {
      if (stats[s].mean() >= 0.9 * plateau &&
          stats[s + 1].mean() >= 0.9 * plateau) {
        return s;
      }
    }
    return steps;  // censored
  };
  const int plumber_steps = steps_to_converge(plumber_stats);
  const int random_steps = steps_to_converge(random_stats);
  const bool censored = random_steps == steps;
  std::printf(
      "steps to 90%% of plumber plateau: plumber=%d random=%s%d "
      "(ratio >= %.1fx)\n",
      plumber_steps, censored ? ">" : "", censored ? steps - 1 : random_steps,
      plumber_steps > 0 ? static_cast<double>(random_steps) / plumber_steps
                        : 0.0);
}

}  // namespace

int main() {
  RunSetup(MachineSpec::SetupA(), /*steps=*/28, /*reps=*/2);
  RunSetup(MachineSpec::SetupB(), /*steps=*/28, /*reps=*/2);
  return 0;
}
