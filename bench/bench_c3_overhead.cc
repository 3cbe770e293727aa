// Reproduces Appendix C.3: the cost of Plumber's tracing. Runs each
// workload in the HEURISTIC configuration with tracing enabled vs
// disabled. Expected shape: overhead is small for vision workloads and
// larger for text workloads, whose per-element work is so small that
// the per-Next accounting is not amortized (paper: ~5% average on
// Setup A, ~19-21% on Transformer/GNMT, larger on Setup B).
#include <cstdio>

#include "bench/bench_util.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

double MeasureWithTracing(const std::string& name,
                          const MachineSpec& machine, bool tracing) {
  Session session = MakeWorkloadSession(machine);
  auto workload = std::move(MakeWorkload(name)).value();
  const GraphDef tuned =
      HeuristicConfiguration(workload.graph, machine.num_cores);
  PipelineOptions popts = session.MakePipelineOptions();
  popts.tracing_enabled = tracing;
  auto pipeline = std::move(Pipeline::Create(tuned, popts)).value();
  RunOptions ropts;
  ropts.max_seconds = 0.4;
  ropts.warmup_batches = 2;
  const RunResult result = RunPipeline(*pipeline, ropts);
  pipeline->Cancel();
  return result.batches_per_second;
}

void RunSetup(const MachineSpec& machine) {
  PrintHeader("Appendix C.3: tracing overhead (" + machine.name + ")");
  Table table({"workload", "untraced mb/s", "traced mb/s", "slowdown"});
  RunningStat slowdowns;
  for (const std::string name :
       {"resnet18", "rcnn", "multibox_ssd", "transformer", "gnmt"}) {
    const double off = MeasureWithTracing(name, machine, false);
    const double on = MeasureWithTracing(name, machine, true);
    const double slowdown = on > 0 ? (off - on) / off : 0;
    slowdowns.Add(slowdown);
    table.AddRow({name, Table::Num(off, 1), Table::Num(on, 1),
                  Table::Num(100 * slowdown, 1) + "%"});
  }
  table.Print();
  std::printf("average slowdown: %.1f%% (paper: ~5%% on A, ~10%% on B;\n"
              "text workloads dominate the overhead)\n",
              100 * slowdowns.mean());
}

}  // namespace

int main() {
  RunSetup(MachineSpec::SetupA());
  RunSetup(MachineSpec::SetupB());
  return 0;
}
