// Reproduces §5.2 (Observation 7): disk microbenchmarks.
//   1. Token-bucket bandwidth sweep on ResNet: Plumber converts the
//      traced bytes/minibatch into a predicted I/O-bound rate and the
//      prediction should track the observed rate until the compute
//      bound takes over (paper: within ~5-15%).
//   2. HDD (180MB/s) and NVMe (2GB/s) device models: predicted vs
//      observed bound per workload.
// Bandwidths are scaled by the dataset byte scale (see datagen.h).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/workloads/datagen.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

// Traces the workload once on unlimited storage to learn the I/O cost
// per minibatch and the CPU-bound rate.
struct WorkloadCosts {
  double disk_bytes_per_minibatch = 0;
  double cpu_bound_rate = 0;
};

WorkloadCosts LearnCosts(const std::string& name,
                         const MachineSpec& machine) {
  Session session = MakeWorkloadSession(machine);
  auto workload = std::move(MakeWorkload(name)).value();
  const GraphDef tuned =
      HeuristicConfiguration(workload.graph, machine.num_cores);
  auto model = std::move(session.FromGraph(tuned).Diagnose(0.3)).value();
  WorkloadCosts costs;
  costs.disk_bytes_per_minibatch = model.DiskBytesPerMinibatch();
  costs.cpu_bound_rate = model.observed_rate();
  return costs;
}

double MeasureAtBandwidth(const std::string& name,
                          const MachineSpec& machine, double bandwidth) {
  auto workload = std::move(MakeWorkload(name)).value();
  Session session =
      MakeWorkloadSession(machine, DeviceSpec::TokenBucketLimit(bandwidth));
  const GraphDef tuned =
      HeuristicConfiguration(workload.graph, machine.num_cores);
  // Measured on a plain Pipeline, not Flow::Run: no executor, so no
  // governor, and the worker pools keep their SPSC edges.
  auto pipeline =
      std::move(Pipeline::Create(tuned, session.MakePipelineOptions()))
          .value();
  RunOptions window;
  window.max_seconds = 0.4;
  window.warmup_seconds = 0.15;
  const double rate = RunPipeline(*pipeline, window).batches_per_second;
  pipeline->Cancel();
  return rate;
}

void BandwidthSweep(const std::string& name) {
  const MachineSpec machine = MachineSpec::SetupA();
  PrintHeader("Obs. 7: token-bucket bandwidth sweep, " + name);
  const WorkloadCosts costs = LearnCosts(name, machine);
  std::printf("traced I/O cost: %.0f bytes/minibatch, CPU-bound ~%.1f mb/s\n",
              costs.disk_bytes_per_minibatch, costs.cpu_bound_rate);
  // Paper sweeps 50..300MB/s on full-size data; scaled by kByteScale
  // that is 0.5..3 MB/s.
  Table table({"bandwidth (scaled)", "predicted mb/s", "observed mb/s",
               "error"});
  for (double mbps : {0.5, 1.0, 1.5, 2.0, 3.0, 6.0}) {
    const double bw = mbps * 1e6;
    const double disk_bound = bw / costs.disk_bytes_per_minibatch;
    const double predicted = std::min(disk_bound, costs.cpu_bound_rate);
    const double observed = MeasureAtBandwidth(name, machine, bw);
    const double err =
        observed > 0 ? std::abs(predicted - observed) / observed : 0;
    table.AddRow({Table::Num(mbps, 1) + " MB/s", Table::Num(predicted, 1),
                  Table::Num(observed, 1),
                  Table::Num(100 * err, 0) + "%"});
  }
  table.Print();
}

void DevicePredictions() {
  const MachineSpec machine = MachineSpec::SetupB();
  PrintHeader("Obs. 7: HDD / NVMe device bounds (setup_b)");
  // Scaled devices: HDD 180MB/s -> 1.8MB/s, NVMe 2GB/s -> 20MB/s.
  Table table({"workload", "device", "predicted bound", "observed",
               "binding"});
  for (const std::string name : {"resnet18", "rcnn", "multibox_ssd"}) {
    const WorkloadCosts costs = LearnCosts(name, machine);
    for (const auto& [dev_name, bw] :
         std::vector<std::pair<std::string, double>>{{"hdd", 1.8e6},
                                                     {"nvme", 20e6}}) {
      const double disk_bound = bw / costs.disk_bytes_per_minibatch;
      const double predicted = std::min(disk_bound, costs.cpu_bound_rate);
      const double observed = MeasureAtBandwidth(name, machine, bw);
      table.AddRow({name, dev_name, Table::Num(predicted, 1),
                    Table::Num(observed, 1),
                    disk_bound < costs.cpu_bound_rate ? "disk" : "compute"});
    }
  }
  table.Print();
  std::printf(
      "\nPaper reference: ResNet HDD-bound within ~15%%; RCNN compute-bound\n"
      "on both devices; MultiBoxSSD HDD-bound within ~10%%, NVMe "
      "compute-bound.\n");
}

}  // namespace

int main() {
  BandwidthSweep("resnet18");
  BandwidthSweep("multibox_ssd");
  DevicePredictions();
  return 0;
}
