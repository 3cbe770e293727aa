// Reproduces Fig. 13 (appendix C.2): local optimality of Plumber's
// per-step choice on MultiBoxSSD. At each optimization step we compare
// the throughput after Plumber's recommended +1 against three random
// one-step deviations. Expected shape: Plumber's choice is locally
// optimal except near bottleneck transitions, where similarly-ranked
// stages make the choice ambiguous.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/rewriter.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

// Measures a configuration on a plain Pipeline, not Flow::Run: no
// executor, so no governor, and the worker pools keep their SPSC edges.
double MeasurePlain(Session& session, const GraphDef& graph) {
  auto pipeline =
      std::move(Pipeline::Create(graph, session.MakePipelineOptions()))
          .value();
  RunOptions window;
  window.max_seconds = 0.12;
  const double rate = RunPipeline(*pipeline, window).batches_per_second;
  pipeline->Cancel();
  return rate;
}

void RunSetup(const MachineSpec& machine, int steps) {
  PrintHeader("Figure 13: MultiBoxSSD one-step deviations (" +
              machine.name + ")");
  Session session = MakeWorkloadSession(machine);
  auto workload = std::move(MakeWorkload("multibox_ssd")).value();
  GraphDef graph = NaiveConfiguration(workload.graph);
  Rng rng(7);
  auto plumber_tuner = MakePlumberStepTuner();

  Table table({"step", "plumber choice", "plumber mb/s", "best deviation",
               "deviation mb/s", "locally optimal"});
  for (int step = 0; step < steps; ++step) {
    // Trace current config.
    auto model =
        std::move(session.FromGraph(graph).Diagnose(0.12)).value();
    TunerContext ctx;
    ctx.model = &model;
    ctx.machine = machine;
    ctx.rng = &rng;
    auto plumber_next = plumber_tuner->Step(graph, ctx);
    if (!plumber_next.ok()) break;

    // Which node did Plumber touch?
    std::string choice = "(none)";
    for (const auto& node : rewriter::TunableNodes(graph)) {
      if (*rewriter::GetParallelism(*plumber_next, node) !=
          *rewriter::GetParallelism(graph, node)) {
        choice = node;
      }
    }
    const double plumber_rate = MeasurePlain(session, *plumber_next);

    // Three random one-step deviations.
    double best_dev_rate = 0;
    std::string best_dev = "(none)";
    const auto tunables = rewriter::TunableNodes(graph);
    for (int d = 0; d < 3; ++d) {
      const std::string& node = tunables[rng.UniformInt(tunables.size())];
      GraphDef deviation = graph;
      const int p = *rewriter::GetParallelism(deviation, node);
      if (p < machine.num_cores) {
        (void)rewriter::SetParallelism(&deviation, node, p + 1);
      }
      const double rate = MeasurePlain(session, deviation);
      if (rate > best_dev_rate) {
        best_dev_rate = rate;
        best_dev = node;
      }
    }
    // 5% tolerance: measurement noise near transitions.
    const bool locally_optimal = plumber_rate >= best_dev_rate * 0.95;
    table.AddRow({std::to_string(step), choice, Table::Num(plumber_rate),
                  best_dev, Table::Num(best_dev_rate),
                  locally_optimal ? "yes" : "NO"});
    graph = std::move(plumber_next).value();
  }
  table.Print();
}

}  // namespace

int main() {
  RunSetup(MachineSpec::SetupA(), 10);
  RunSetup(MachineSpec::SetupB(), 10);
  return 0;
}
