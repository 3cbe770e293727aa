// inspect_workload: a diagnosis walk-through for any built-in workload.
//
// Usage: inspect_workload [workload]   (default: resnet_linear)
//
// Demonstrates the full Plumber loop on one workload:
//   1. run the Plumber optimizer on every signature-equivalent variant,
//   2. print the optimizer's decisions (LP allocation, prefetch buffer,
//      cache placement) and its pass log,
//   3. measure the optimized pipelines against the naive and heuristic
//      configurations,
//   4. print a traced per-node breakdown of the heuristic configuration
//      so the bottleneck is visible in the raw statistics.
//
// This is the programmatic equivalent of the paper's "what is my
// pipeline doing and what would Plumber change" workflow (§4.1).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "src/core/plumber.h"
#include "src/pipeline/ops.h"
#include "src/tuners/tuner.h"
#include "src/workloads/datagen.h"
#include "src/workloads/workloads.h"

using namespace plumber;

namespace {

double Measure(const Workload& workload, const GraphDef& graph,
               const MachineSpec& machine, const char* label) {
  // Fresh session per measurement: fresh I/O accounting, cold caches.
  Session session = MakeWorkloadSession(machine, workload.storage);
  RunOptions window;
  window.warmup_seconds = 1.2;
  window.max_seconds = 0.8;
  window.model_step_seconds = workload.ModelStepSeconds();
  const auto report = session.FromGraph(graph).Run(window);
  const double rate = report.ok() ? report->batches_per_second : 0;
  std::printf("  %-24s %8.1f minibatches/s\n", label, rate);
  return rate;
}

void PrintTunedNodes(const GraphDef& graph) {
  for (const auto& node : graph.nodes()) {
    const long long par = node.GetInt(kAttrParallelism, 1);
    const long long buf = node.GetInt(kAttrBufferSize, 0);
    if (par > 1 || node.op == "cache" || node.op == "prefetch") {
      std::printf("    %-22s op=%-16s parallelism=%-3lld buffer=%lld\n",
                  node.name.c_str(), node.op.c_str(), par, buf);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "resnet_linear";
  auto workload_or = MakeWorkload(name);
  if (!workload_or.ok()) {
    std::fprintf(stderr, "unknown workload %s; available:", name.c_str());
    for (const auto& n : AllWorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  Workload workload = std::move(workload_or).value();
  MachineSpec machine = MachineSpec::SetupC(kMemoryScale);
  machine.num_cores = std::min(
      96, static_cast<int>(std::thread::hardware_concurrency()));

  std::printf("workload=%s cores=%d memory=%.1fMB model_step=%.2fms\n",
              name.c_str(), machine.num_cores, machine.memory_bytes / 1e6,
              workload.ModelStepSeconds() * 1e3);

  // Optimize every pick_best variant and show the decisions.
  for (size_t v = 0; v < workload.variants.size(); ++v) {
    Session session = MakeWorkloadSession(machine, workload.storage);
    OptimizeOptions options;
    options.trace_seconds = 0.25;
    options.lp_options.disk_bandwidth = workload.storage.max_bandwidth;
    auto result =
        session.FromGraph(workload.variants[v]).Optimize(options);
    if (!result.ok()) {
      std::printf("variant %zu: optimization failed: %s\n", v,
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("variant %zu: LP rate=%.1f cache=%s\n", v,
                result->plan.predicted_rate,
                result->cache.feasible ? result->cache.node.c_str() : "none");
    for (const auto& line : result->log) std::printf("    %s\n", line.c_str());
    const GraphDef tuned = std::move(result->Graph()).value();
    PrintTunedNodes(tuned);
    Measure(workload, tuned, machine,
            ("plumber variant " + std::to_string(v)).c_str());
  }

  Measure(workload, NaiveConfiguration(workload.graph), machine, "naive");
  Measure(workload, HeuristicConfiguration(workload.graph, machine.num_cores),
          machine, "heuristic");

  // Traced per-node breakdown of the heuristic configuration: the raw
  // statistics Plumber's analysis layer consumes.
  Session session = MakeWorkloadSession(machine, workload.storage);
  const TraceSnapshot trace =
      std::move(session
                    .FromGraph(HeuristicConfiguration(workload.graph,
                                                      machine.num_cores))
                    .Trace(0.5))
          .value();
  std::printf("heuristic trace: %.1f minibatches/s over %.2fs\n",
              trace.observed_rate, trace.wall_seconds);
  for (const auto& st : trace.stats) {
    if (st.elements_produced == 0) continue;
    std::printf("  %-22s %-18s par=%-3d produced=%-8llu cpu_us/el=%-8.1f"
                " bytes/el=%.0f\n",
                st.name.c_str(), st.op.c_str(), st.parallelism,
                static_cast<unsigned long long>(st.elements_produced),
                st.cpu_ns / 1e3 / st.elements_produced,
                static_cast<double>(st.bytes_produced) / st.elements_produced);
  }
  return 0;
}
