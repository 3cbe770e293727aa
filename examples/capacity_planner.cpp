// capacity_planner: provision the smallest machine for a target rate.
//
// Usage: capacity_planner [workload] [target_minibatches_per_sec]
//
// Demonstrates the provisioning extension (paper §4.1 future work):
//   1. trace the workload's pipeline once on the local machine,
//   2. print the roofline report (compute + I/O roofs, headroom),
//   3. compute the minimal resource vector for the target rate, with
//      and without caching,
//   4. pick the cheapest machine from a small synthetic cloud catalog,
//   5. show the memory/disk cache-tier dispatch for two machine shapes.
#include <cstdio>
#include <string>

#include "src/core/plumber.h"
#include "src/tuners/tuner.h"
#include "src/workloads/datagen.h"
#include "src/workloads/workloads.h"

using namespace plumber;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "resnet18";
  const double target = argc > 2 ? std::atof(argv[2]) : 200.0;

  auto workload_or = MakeWorkload(name);
  if (!workload_or.ok()) {
    std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
    return 1;
  }
  Workload workload = std::move(workload_or).value();
  Session session =
      MakeWorkloadSession(MachineSpec::SetupA(), workload.storage);

  // 1. Trace the naive pipeline.
  auto model_or =
      session.FromGraph(NaiveConfiguration(workload.graph)).Diagnose(0.5);
  if (!model_or.ok()) {
    std::fprintf(stderr, "diagnose failed: %s\n",
                 model_or.status().ToString().c_str());
    return 1;
  }
  const PipelineModel& model = *model_or;

  // 2. Roofline report.
  const RooflineReport roofline =
      BuildRoofline(model, workload.storage.max_bandwidth);
  std::printf("%s", roofline.ToString().c_str());

  // 3. Minimal resources for the target rate.
  ProvisionRequest request;
  request.target_rate = target;
  request.headroom = 1.1;
  for (const bool allow_cache : {false, true}) {
    request.allow_cache = allow_cache;
    const ProvisionPlan plan = PlanProvision(model, request);
    std::printf("\nprovision target=%.0f mb/s (%s):\n", target,
                allow_cache ? "cache allowed" : "no cache");
    if (!plan.feasible) {
      std::printf("  infeasible: %s\n", plan.infeasible_reason.c_str());
      continue;
    }
    std::printf("  cores=%.2f  disk_bw=%.2f MB/s  memory=%.2f MB%s%s\n",
                plan.cores_needed, plan.disk_bandwidth_needed / 1e6,
                plan.memory_needed / 1e6,
                plan.uses_cache ? "  cache at " : "",
                plan.uses_cache ? plan.cache_node.c_str() : "");
  }

  // 4. Cheapest machine from a synthetic catalog (prices arbitrary).
  const std::vector<MachineOffer> catalog = {
      {"c2-standard-4", 4, 16ull << 20, 50e6, 0.21},
      {"c2-standard-16", 16, 64ull << 20, 100e6, 0.84},
      {"c2-standard-60", 60, 240ull << 20, 200e6, 3.14},
      {"m1-megamem-96", 96, 1434ull << 20, 400e6, 10.67},
  };
  ProvisionRequest pick = request;
  pick.allow_cache = true;
  const CatalogChoice choice = PickCheapestMachine(model, pick, catalog);
  std::printf("\ncheapest machine for %.0f mb/s: ", target);
  if (choice.feasible) {
    std::printf("%s ($%.2f/h)%s%s\n", choice.offer.name.c_str(),
                choice.cost_per_hour,
                choice.plan.uses_cache ? ", cache at " : "",
                choice.plan.uses_cache ? choice.plan.cache_node.c_str() : "");
  } else {
    std::printf("none in catalog\n");
  }

  // 5. Cache-tier dispatch on two machine shapes.
  struct Shape {
    const char* label;
    CachePlanOptions options;
  };
  CachePlanOptions big_ram;
  big_ram.memory_bytes = 64ull << 20;
  big_ram.disk_free_bytes = 256ull << 20;
  big_ram.disk_read_bandwidth = 100e6;
  CachePlanOptions small_ram = big_ram;
  small_ram.memory_bytes = 1 << 20;
  for (const Shape& shape :
       {Shape{"64MB RAM + scratch SSD", big_ram},
        Shape{"1MB RAM + scratch SSD", small_ram}}) {
    const CacheDecision decision = PlanCache(model, shape.options);
    std::printf("cache tier on %-24s -> %s%s%s\n", shape.label,
                CacheTierName(decision.tier),
                decision.feasible ? " at " : "",
                decision.feasible ? decision.node.c_str() : "");
  }
  return 0;
}
