// Ablation: what each optimizer pass contributes.
//
// The pass framework makes this sweep self-maintaining: the schedule
// string is the optimizer's only knob, so the bench walks the pass
// table (OptimizerPasses()) in its canonical order and measures the
// end-to-end rate of resnet18 and multibox_ssd under cumulative
// schedules — naive, then each pass added in turn (the cache step also
// appends the default trailing re-parallelism so the LP can
// redistribute the cores a cache frees). A pass added to the table
// joins the ablation without touching this file.
//
// Emits BENCH_METRIC lines for the CI regression gate: absolute mb/s
// per schedule plus speedup-vs-naive ratios (the `_rel` metrics, which
// compare across host classes), and the host's spin calibration rate so
// the gate can normalize absolute rates across hosts.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/passes/pass.h"
#include "src/pipeline/ops.h"
#include "src/util/busy_work.h"
#include "src/workloads/datagen.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

struct AblationConfig {
  std::string label;     // table row label
  std::string key;       // BENCH_METRIC key component
  std::string schedule;  // "" = no optimization (naive)
};

std::vector<AblationConfig> CumulativeSchedules() {
  std::vector<AblationConfig> configs;
  configs.push_back({"none (naive)", "naive", ""});
  std::string cumulative;
  for (const OptimizerPass& pass : OptimizerPasses()) {
    const std::string name = pass.name;
    cumulative += (cumulative.empty() ? "" : ",") + name;
    // A pass's declared follow-up joins its cumulative step (cache
    // pulls in the re-parallelism of the default schedule).
    if (pass.followup != nullptr) {
      cumulative += std::string(",") + pass.followup;
    }
    configs.push_back({"+" + name, "cum_" + name, cumulative});
  }
  return configs;
}

double MeasureConfig(const Workload& workload, const MachineSpec& machine,
                     const AblationConfig& config) {
  GraphDef graph = NaiveConfiguration(workload.graph);
  if (!config.schedule.empty()) {
    Session session = MakeWorkloadSession(machine, workload.storage);
    OptimizeOptions options;
    options.trace_seconds = 0.25;
    options.lp_options.disk_bandwidth = workload.storage.max_bandwidth;
    auto result = session.FromGraph(graph).OptimizeWith(config.schedule,
                                                        options);
    if (!result.ok()) {
      std::fprintf(stderr, "optimize(%s) failed: %s\n",
                   config.schedule.c_str(),
                   result.status().ToString().c_str());
      return 0;
    }
    graph = std::move(result->Graph()).value();
  }
  Session fresh = MakeWorkloadSession(machine, workload.storage);
  return MeasureRate(fresh, graph, 0.8, workload.ModelStepSeconds(), 1.6);
}

void RunWorkloadAblation(const std::string& name, int cores) {
  PrintHeader("Ablation: optimizer passes on " + name);
  auto workload = std::move(MakeWorkload(name)).value();
  MachineSpec machine = MachineSpec::SetupC(kMemoryScale);
  machine.num_cores = cores;

  Table table({"schedule", "mb/s", "vs naive"});
  double naive_rate = 0;
  for (const AblationConfig& config : CumulativeSchedules()) {
    const double rate = MeasureConfig(workload, machine, config);
    if (naive_rate == 0) naive_rate = rate > 0 ? rate : 1;
    table.AddRow({config.label, Table::Num(rate, 1),
                  Table::Num(rate / naive_rate, 2) + "x"});
    std::printf("BENCH_METRIC ablation.%s.%s_mbps %.4f\n", name.c_str(),
                config.key.c_str(), rate);
    if (config.key != "naive") {
      std::printf("BENCH_METRIC ablation.%s.%s_rel %.4f\n", name.c_str(),
                  config.key.c_str(), rate / naive_rate);
    }
    std::fflush(stdout);
  }
  table.Print();
}

// Source-bound sharding scenario (§4.1 extensions): a cheap pipeline
// behind a 200KB/s modeled disk is I/O bound no matter how much CPU
// parallelism the LP hands out; the shard_sources pass splits the reader
// across per-shard modeled disks, so aggregate source bandwidth scales
// with the shard count. Exit-code gated: the sharded program must read
// against >= 2 modeled disks and measure >= 1.5x the unsharded rate
// (per-shard device metering itself is pinned by placement_test).
bool ShardScenario() {
  PrintHeader("Ablation: shard_sources on a source-bound pipeline");
  const DeviceSpec disk = DeviceSpec::TokenBucketLimit(2e5);
  MachineSpec machine = MachineSpec::SetupC(kMemoryScale);

  GraphBuilder b;
  auto n = b.TfRecord("reader", b.FileList("files", "imagenet/train-"));
  n = b.Batch("batch", n, 32);
  const GraphDef naive = std::move(b.Build(n)).value();

  GraphDef graphs[2];  // [0] = parallelism only, [1] = sharded
  const char* schedules[2] = {"parallelism", "shard_sources,parallelism"};
  for (int i = 0; i < 2; ++i) {
    Session session = MakeWorkloadSession(machine, disk);
    OptimizeOptions options;
    options.trace_seconds = 0.25;
    options.lp_options.disk_bandwidth = disk.max_bandwidth;
    auto result = session.FromGraph(naive).OptimizeWith(schedules[i], options);
    if (!result.ok()) {
      std::printf("FAIL: optimize(%s): %s\n", schedules[i],
                  result.status().ToString().c_str());
      return false;
    }
    graphs[i] = std::move(result->Graph()).value();
  }

  int shard_readers = 0;
  for (const NodeDef& node : graphs[1].nodes()) {
    if (node.op == "tfrecord" && node.GetInt(kAttrShardCount, 0) > 0) {
      ++shard_readers;
    }
  }

  double rates[2];
  for (int i = 0; i < 2; ++i) {
    Session session = MakeWorkloadSession(machine, disk);
    rates[i] = MeasureRate(session, graphs[i], 0.8, 0, 0.4);
  }
  const double speedup = rates[0] > 0 ? rates[1] / rates[0] : 0;
  std::printf("unsharded %.1f mb/s; %d shard disks %.1f mb/s "
              "(%.2fx, bar: >= 1.5x)\n",
              rates[0], shard_readers, rates[1], speedup);
  std::printf("BENCH_METRIC ablation.shard.unsharded_mbps %.4f\n", rates[0]);
  std::printf("BENCH_METRIC ablation.shard.sharded_mbps %.4f\n", rates[1]);
  std::printf("BENCH_METRIC ablation.shard.speedup_rel %.4f\n", speedup);
  bool ok = true;
  if (shard_readers < 2) {
    std::printf("FAIL: expected >= 2 shard readers, got %d\n", shard_readers);
    ok = false;
  }
  if (speedup < 1.5) {
    std::printf("FAIL: shard speedup %.2fx below the 1.5x bar\n", speedup);
    ok = false;
  }
  return ok;
}

}  // namespace

int main() {
  // Host speed signal for cross-host baseline normalization (see
  // scripts/check_bench_regression.py; excluded from gating itself).
  std::printf("BENCH_METRIC host_spin_rounds_per_ns %.6f\n",
              SpinRoundsPerNano());
  const int cores = std::min(
      96, static_cast<int>(std::thread::hardware_concurrency()));
  RunWorkloadAblation("resnet18", cores);
  RunWorkloadAblation("multibox_ssd", cores);
  const bool shard_ok = ShardScenario();
  std::printf(
      "\nExpected shape: LP parallelism provides the bulk of the win over\n"
      "naive; prefetch adds overlap; caching lifts the pipeline past the\n"
      "I/O bound (paper Fig. 10). Sharding lifts a source-bound pipeline\n"
      "by reading against multiple modeled disks.\n");
  return shard_ok ? 0 : 1;
}
