// Reproduces Fig. 10 (relative speedups) and Fig. 12 (absolute
// throughputs) of end-to-end "training" on the Setup C consumer:
// Naive vs AUTOTUNE vs HEURISTIC vs Plumber across the MLPerf-style
// workloads, plus the MultiBoxSSD(48-core) appendix variant.
//
// Expected shape (paper): Plumber >= strong baselines everywhere except
// RCNN (where its conservative allocation can lag slightly); caching
// drives the large wins (ResNet18/ResNetLinear/MultiBoxSSD/
// TransformerSmall); Transformer and GNMT tie at the model cap.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/util/busy_work.h"
#include "src/workloads/datagen.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

struct Row {
  std::string workload;
  double naive = 0, autotune = 0, heuristic = 0, plumber = 0;
  std::string cache_node;
};

Row RunWorkload(const std::string& name, int num_cores) {
  Row row;
  row.workload = name;
  auto workload = std::move(MakeWorkload(name)).value();
  MachineSpec machine = MachineSpec::SetupC(kMemoryScale);
  machine.num_cores = num_cores;
  const double step = workload.ModelStepSeconds();
  // The warmup window must cover at least one full epoch of the scaled
  // dataset so injected caches are warm when measurement starts (the
  // paper evaluates over 5 epochs, so cache fill is amortized away).
  const double kMeasure = 0.8, kWarmup = 1.6;

  // Each policy gets a fresh session (fresh device + filesystem: fresh
  // page of I/O accounting, cold caches).
  auto measure = [&](const GraphDef& graph) {
    Session session = MakeWorkloadSession(machine, workload.storage);
    return MeasureRate(session, graph, kMeasure, step, kWarmup);
  };

  row.naive = measure(NaiveConfiguration(workload.graph));
  row.heuristic =
      measure(HeuristicConfiguration(workload.graph, machine.num_cores));

  {
    // AUTOTUNE: trace the naive configuration, hill-climb, measure.
    Session session = MakeWorkloadSession(machine, workload.storage);
    auto model = std::move(session.FromGraph(
                                      NaiveConfiguration(workload.graph))
                               .Diagnose(0.25))
                     .value();
    AutotuneOptions aopts;
    aopts.max_parallelism = machine.num_cores;
    auto autotuned =
        std::move(AutotuneConfiguration(workload.graph, model, aopts))
            .value();
    row.autotune = measure(autotuned.graph);
  }

  {
    // Plumber: full optimizer (LP + prefetch + cache) over the
    // pick_best variants.
    Session session = MakeWorkloadSession(machine, workload.storage);
    OptimizeOptions oopts;
    oopts.trace_seconds = 0.25;
    oopts.lp_options.disk_bandwidth = workload.storage.max_bandwidth;
    auto result = workload.variants.size() > 1
                      ? session.OptimizeBest(workload.variants, oopts)
                      : session.FromGraph(workload.graph).Optimize(oopts);
    if (result.ok()) {
      row.plumber = measure(std::move(result->Graph()).value());
      row.cache_node = result->cache.feasible ? result->cache.node : "-";
    }
  }
  return row;
}

}  // namespace

int main() {
  // Host speed signal for cross-host baseline normalization (see
  // scripts/check_bench_regression.py; excluded from gating itself).
  std::printf("BENCH_METRIC host_spin_rounds_per_ns %.6f\n",
              SpinRoundsPerNano());
  PrintHeader("Figure 10 / Figure 12: end-to-end on Setup C (TPUv3-8 host)");
  // Setup C has 96 cores; we emulate it with the host's core budget so
  // the HEURISTIC policy ("parallelism = machine cores") means the same
  // thing it meant on the paper's testbed instead of oversubscribing
  // the host into thread-thrash the real 96-core machine never saw.
  // All four tuners see the same budget, so the comparison holds.
  const int kSetupCCores =
      std::min(96, static_cast<int>(std::thread::hardware_concurrency()));
  const int kHalfCores = std::max(1, kSetupCCores / 2);
  const std::vector<std::pair<std::string, int>> configs = {
      {"resnet18", kSetupCCores},     {"resnet_linear", kSetupCCores},
      {"multibox_ssd", kSetupCCores}, {"multibox_ssd", kHalfCores},
      {"rcnn", kSetupCCores},         {"transformer", kSetupCCores},
      {"transformer_small", kSetupCCores},
      {"gnmt", kSetupCCores},         {"resnet50", kSetupCCores},
  };
  Table rel({"workload", "naive", "autotune", "heuristic", "plumber",
             "plumber cache at"});
  Table abs({"workload", "naive mb/s", "autotune", "heuristic", "plumber"});
  std::set<std::string> emitted_metrics;
  for (const auto& [name, cores] : configs) {
    // A reduced-core config (the MultiBoxSSD(48) appendix run) disables
    // the extra cores at the OS level, not just in the tuners' budget.
    std::unique_ptr<ScopedCpuAffinity> affinity;
    if (cores < kSetupCCores) {
      affinity = std::make_unique<ScopedCpuAffinity>(cores);
    }
    const Row row = RunWorkload(name, cores);
    affinity.reset();
    const std::string label =
        cores == kSetupCCores ? row.workload : row.workload + "(48)";
    const double base = row.naive > 0 ? row.naive : 1;
    // Machine-readable metrics (higher is better) scraped by
    // scripts/run_bench_json.sh into BENCH_*.json for the CI
    // perf-regression gate. The relative metric is the one worth
    // gating across hosts; absolute rates are recorded for context.
    // On a 1-core host the full- and half-core configs collapse to the
    // same label; emit each label once so the JSON has unique keys.
    if (emitted_metrics.insert(label).second) {
      std::printf("BENCH_METRIC fig10.%s.naive_mbps %.4f\n", label.c_str(),
                  row.naive);
      std::printf("BENCH_METRIC fig10.%s.plumber_mbps %.4f\n", label.c_str(),
                  row.plumber);
      std::printf("BENCH_METRIC fig10.%s.plumber_rel %.4f\n", label.c_str(),
                  row.plumber / base);
    }
    rel.AddRow({label, "1.0", Table::Num(row.autotune / base, 1),
                Table::Num(row.heuristic / base, 1),
                Table::Num(row.plumber / base, 1), row.cache_node});
    abs.AddRow({label, Table::Num(row.naive, 1), Table::Num(row.autotune, 1),
                Table::Num(row.heuristic, 1), Table::Num(row.plumber, 1)});
    std::fflush(stdout);
  }
  std::printf("\n-- relative rate (Fig. 10) --\n");
  rel.Print();
  std::printf("\n-- absolute minibatches/sec (Fig. 12) --\n");
  abs.Print();
  std::printf(
      "\nPaper reference (relative): ResNet18 39.2x, ResNetLinear 47.6x,\n"
      "MultiBoxSSD 23.6x, RCNN 4.8x (slightly below AUTOTUNE's 5.9x),\n"
      "Transformer 1.0x, TransformerSmall 12.3x, GNMT 1.0x for Plumber.\n");
  return 0;
}
