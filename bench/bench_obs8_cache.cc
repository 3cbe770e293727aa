// Reproduces §5.3 (Observation 8): memory / cache-size estimation.
//   1. Source dataset sizes: Plumber's estimate vs ground truth for
//      every dataset (paper: exact for full sweeps).
//   2. Subsampling: tracing only ~1% of files (by stopping early) still
//      estimates the dataset size within a few percent.
//   3. Materialized sizes: decode amplification (~6x for ImageNet-style
//      decode) and the MultiBoxSSD filter's <1% reduction, with error
//      decreasing as tracing time grows.
//   4. (§4.1 extensions) Optimizer-driven tiered placement: when DRAM
//      fits, the cache pass places the same DRAM cache with or without
//      a scratch tier; when only the SSD scratch tier fits, the
//      disk-tier cache must beat the uncached pipeline; a bottleneck
//      scratch device must never be chosen. The tiered scenarios are
//      exit-code gates; the estimate sections emit BENCH_METRIC
//      accuracy ratios for the CI gate.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/pipeline/ops.h"
#include "src/workloads/datagen.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

// Flow::Diagnose takes only a time budget; the subsampling section also
// stops the trace after `max_batches`.
PipelineModel TraceWorkload(Session& session, const GraphDef& graph,
                            double seconds, int64_t max_batches = 0) {
  auto pipeline =
      std::move(Pipeline::Create(graph, session.MakePipelineOptions()))
          .value();
  TraceOptions topts;
  topts.trace_seconds = seconds;
  topts.max_batches = max_batches;
  topts.machine = session.machine();
  const TraceSnapshot trace = CaptureTrace(*pipeline, topts);
  pipeline->Cancel();
  return std::move(PipelineModel::Build(trace, &session.udfs())).value();
}

void SourceSizes() {
  PrintHeader("Obs. 8: source dataset size estimates (full sweep)");
  Table table({"dataset", "true bytes", "estimated", "rel err"});
  double worst_err = 0;
  for (const auto& [workload_name, prefix] :
       std::vector<std::pair<std::string, std::string>>{
           {"resnet18", "imagenet/train-"},
           {"rcnn", "coco/train-"},
           {"transformer", "wmt17/train-"},
           {"gnmt", "wmt16/train-"}}) {
    Session env = MakeWorkloadSession(MachineSpec::SetupA());
    auto workload = std::move(MakeWorkload(workload_name)).value();
    const double truth =
        static_cast<double>(DatasetBytes(env.fs(), prefix));
    // Long trace sweeps the whole (scaled) dataset at least once.
    const GraphDef tuned = HeuristicConfiguration(workload.graph, 16);
    const PipelineModel model = TraceWorkload(env, tuned, 2.0);
    const auto est = model.EstimateSourceSizes().at(prefix);
    const double err = std::abs(est.estimated_bytes - truth) / truth;
    worst_err = std::max(worst_err, err);
    table.AddRow({prefix, Table::Num(truth, 0),
                  Table::Num(est.estimated_bytes, 0),
                  Table::Num(100 * err, 2) + "%"});
  }
  table.Print();
  // Worst-case estimate accuracy across datasets (1.0 = exact); gated
  // as a ratio so it travels across host classes.
  std::printf("BENCH_METRIC obs8.source_size_accuracy_rel %.4f\n",
              1.0 - worst_err);
}

void Subsampling() {
  PrintHeader("Obs. 8: subsampled size estimation (early-stopped traces)");
  Table table({"dataset", "batches traced", "files seen", "rel err"});
  double err_at_40 = 0;
  for (const int64_t batches : {2, 5, 10, 40}) {
    Session env = MakeWorkloadSession(MachineSpec::SetupA());
    auto workload = std::move(MakeWorkload("resnet18")).value();
    const double truth =
        static_cast<double>(DatasetBytes(env.fs(), "imagenet/train-"));
    const PipelineModel model = TraceWorkload(
        env, NaiveConfiguration(workload.graph), 5.0, batches);
    const auto est = model.EstimateSourceSizes().at("imagenet/train-");
    const double err = std::abs(est.estimated_bytes - truth) / truth;
    if (batches == 40) err_at_40 = err;
    table.AddRow({"imagenet/train-", std::to_string(batches),
                  std::to_string(est.files_seen) + "/" +
                      std::to_string(est.files_total),
                  Table::Num(100 * err, 2) + "%"});
  }
  table.Print();
  std::printf("Paper reference: 1%% of files -> ~1%% relative error.\n");
  std::printf("BENCH_METRIC obs8.subsample_accuracy_rel %.4f\n",
              1.0 - err_at_40);
}

void Materialization() {
  PrintHeader("Obs. 8: materialized-size estimates vs tracing time");
  // ResNet unfused: decode amplifies bytes ~6x; the estimate of the
  // decoded dataset should approach 6x the source size as tracing time
  // grows (paper: 6% error at 60s, <1% at 2min on full-size data).
  Table table({"trace budget", "est decode bytes", "true-ish (6x src)",
               "rel err", "ssd filter keep"});
  double err_at_longest = 0;
  for (const double seconds : {0.1, 0.25, 0.5, 1.5}) {
    Session env = MakeWorkloadSession(MachineSpec::SetupA());
    auto resnet = std::move(MakeWorkload("resnet18")).value();
    const double source_truth =
        64 * 120 * 1100.0;  // payload bytes (approx; excludes framing)
    const PipelineModel model = TraceWorkload(
        env, HeuristicConfiguration(resnet.graph, 16), seconds);
    const NodeModel* decode = model.Find("decode");
    const double est = decode != nullptr ? decode->materialized_bytes : 0;
    const double truth = 6.0 * source_truth;
    const double err = std::abs(est - truth) / truth;

    // MultiBoxSSD filter reduction, same budget.
    Session ssd_env = MakeWorkloadSession(MachineSpec::SetupA());
    auto ssd = std::move(MakeWorkload("multibox_ssd")).value();
    const PipelineModel ssd_model = TraceWorkload(
        ssd_env, HeuristicConfiguration(ssd.graph, 16), seconds);
    const NodeModel* filter = ssd_model.Find("filter");
    const NodeModel* ssd_decode = ssd_model.Find("decode");
    double keep = 0;
    if (filter != nullptr && ssd_decode != nullptr &&
        ssd_decode->completions > 0) {
      keep = static_cast<double>(filter->completions) /
             ssd_decode->completions;
    }
    if (seconds == 1.5) err_at_longest = err;
    table.AddRow({Table::Num(seconds, 2) + "s", Table::Num(est, 0),
                  Table::Num(truth, 0), Table::Num(100 * err, 1) + "%",
                  Table::Num(100 * keep, 1) + "%"});
  }
  table.Print();
  std::printf(
      "Paper reference: decode amplification ~6x; filter reduces the\n"
      "dataset by <1%%; error decreases with tracing time.\n");
  std::printf("BENCH_METRIC obs8.decode_size_accuracy_rel %.4f\n",
              1.0 - err_at_longest);
}

void CachePlacements() {
  PrintHeader("Obs. 8: cache placement across memory budgets (resnet18)");
  Session env = MakeWorkloadSession(MachineSpec::SetupA());
  auto workload = std::move(MakeWorkload("resnet18")).value();
  const PipelineModel model = TraceWorkload(
      env, HeuristicConfiguration(workload.graph, 16), 1.0);
  Table table({"memory budget", "cache decision", "materialized bytes"});
  int feasible = 0;
  for (const double mb : {0.5, 2.0, 10.0, 60.0, 120.0}) {
    CachePlanOptions copts;
    copts.memory_bytes = static_cast<uint64_t>(mb * 1e6);
    const CacheDecision decision = PlanCache(model, copts);
    feasible += decision.feasible ? 1 : 0;
    table.AddRow({Table::Num(mb, 1) + " MB",
                  decision.feasible ? decision.node : "(none fits)",
                  decision.feasible
                      ? Table::Num(decision.materialized_bytes, 0)
                      : "-"});
  }
  table.Print();
  // Context only (never gated): how many of the swept budgets fit a
  // DRAM materialization at all.
  std::printf("BENCH_METRIC obs8.dram_budgets_feasible_count %d\n",
              feasible);
  std::printf(
      "Expected: tiny budgets fit nothing; mid budgets cache the source\n"
      "(paper: 148GB at the data source); large budgets cache decoded\n"
      "images (paper: 793GB of a true 842GB).\n");
}

// --------------------------------------------- tiered placement (§4.1)

struct CacheNodeInfo {
  int count = 0;            // cache ops in the graph
  std::string after;        // input of the (last) cache op
  std::string tier = "";    // "" = memory (no tier attr)
};

CacheNodeInfo FindCache(const GraphDef& graph) {
  CacheNodeInfo info;
  for (const NodeDef& node : graph.nodes()) {
    if (node.op != "cache") continue;
    ++info.count;
    if (!node.inputs.empty()) info.after = node.inputs[0];
    info.tier = node.GetString(kAttrCacheTier, "");
  }
  return info;
}

StatusOr<GraphDef> OptimizeSchedule(const Workload& workload,
                                    const MachineSpec& machine,
                                    const std::string& schedule) {
  Session session = MakeWorkloadSession(machine, workload.storage);
  OptimizeOptions options;
  options.trace_seconds = 0.25;
  options.evaluate_warmup_seconds = 0.8;
  options.lp_options.disk_bandwidth = workload.storage.max_bandwidth;
  auto result = session.FromGraph(NaiveConfiguration(workload.graph))
                    .OptimizeWith(schedule, options);
  if (!result.ok()) return result.status();
  return std::move(result->Graph());
}

double MeasureOn(const Workload& workload, const MachineSpec& machine,
                 const GraphDef& graph) {
  Session session = MakeWorkloadSession(machine, workload.storage);
  // Uncapped (no model step): the consumer cap would clip the cached
  // arm and hide the tier's effect on pipeline throughput.
  return MeasureRate(session, graph, 0.8, /*model_step_seconds=*/0, 1.6);
}

// The §4.1-extension scenarios for the cache pass, exit-code gated:
//   (a) DRAM fits -> a scratch tier changes nothing: same DRAM
//       placement as on the machine without one;
//   (b) only the SSD scratch tier fits -> the disk-tier cache beats the
//       uncached pipeline by >= 1.3x once warm;
//   (c) a bottleneck scratch device (slower than the pipeline it would
//       serve) is never chosen, even when nothing else fits.
bool TieredPlacement() {
  PrintHeader(
      "Obs. 8 extension: optimizer-driven tiered placement (multibox_ssd)");
  auto workload = std::move(MakeWorkload("multibox_ssd")).value();
  bool ok = true;

  // (a) DRAM fits: adding a scratch tier must not move the cache.
  const MachineSpec dram_only = MachineSpec::SetupC(kMemoryScale);
  MachineSpec dram = dram_only;
  dram.scratch = DeviceSpec::NvmeSsd();
  dram.scratch_bytes = 1ull << 30;
  auto without_scratch =
      OptimizeSchedule(workload, dram_only, kDefaultPassSchedule);
  auto with_scratch = OptimizeSchedule(workload, dram, kDefaultPassSchedule);
  if (!without_scratch.ok() || !with_scratch.ok()) {
    std::printf("FAIL: DRAM-fit optimize error: %s / %s\n",
                without_scratch.status().ToString().c_str(),
                with_scratch.status().ToString().c_str());
    return false;
  }
  const CacheNodeInfo dram_cache = FindCache(*without_scratch);
  const CacheNodeInfo tiered_cache = FindCache(*with_scratch);
  std::printf("DRAM fits:  no scratch -> after %s;  with scratch -> after %s "
              "(%s)\n",
              dram_cache.count > 0 ? dram_cache.after.c_str() : "(none)",
              tiered_cache.count > 0 ? tiered_cache.after.c_str() : "(none)",
              tiered_cache.tier.empty() ? "memory" : tiered_cache.tier.c_str());
  if (dram_cache.count != 1 || tiered_cache.count != 1 ||
      dram_cache.after != tiered_cache.after || !tiered_cache.tier.empty()) {
    std::printf("FAIL: a scratch tier moved the DRAM-fit placement\n");
    ok = false;
  }

  // (b) SSD-only: DRAM far below the materialization, fast scratch.
  // Few cores keep the uncached arm decode-bound (the regime where a
  // cache matters); serving the materialization skips the decode.
  MachineSpec ssd = dram;
  ssd.memory_bytes = 1 << 16;
  ssd.num_cores = 2;
  auto uncached_graph =
      OptimizeSchedule(workload, ssd, "parallelism,prefetch");
  auto placed_graph = OptimizeSchedule(workload, ssd, kDefaultPassSchedule);
  if (!uncached_graph.ok() || !placed_graph.ok()) {
    std::printf("FAIL: SSD-only optimize error: %s / %s\n",
                uncached_graph.status().ToString().c_str(),
                placed_graph.status().ToString().c_str());
    return false;
  }
  const CacheNodeInfo placed_cache = FindCache(*placed_graph);
  if (placed_cache.count != 1 || placed_cache.tier != "disk") {
    std::printf("FAIL: SSD-only run did not place a disk-tier cache\n");
    ok = false;
  }
  const double uncached = MeasureOn(workload, ssd, *uncached_graph);
  const double placed = MeasureOn(workload, ssd, *placed_graph);
  const double speedup = uncached > 0 ? placed / uncached : 0;
  std::printf("SSD only:   uncached %.1f mb/s, disk-tier cache %.1f mb/s "
              "(%.2fx, bar: >= 1.3x)\n",
              uncached, placed, speedup);
  std::printf("BENCH_METRIC obs8.tier_uncached_mbps %.4f\n", uncached);
  std::printf("BENCH_METRIC obs8.tier_disk_mbps %.4f\n", placed);
  std::printf("BENCH_METRIC obs8.tier_disk_speedup_rel %.4f\n", speedup);
  if (speedup < 1.3) {
    std::printf("FAIL: disk-tier speedup %.2fx below the 1.3x bar\n", speedup);
    ok = false;
  }

  // (c) Bottleneck scratch: serving from it would be slower than just
  // recomputing, so no tier must be chosen at all.
  MachineSpec slow = ssd;
  slow.scratch = DeviceSpec::TokenBucketLimit(2e4);
  auto refused =
      OptimizeSchedule(workload, slow, "parallelism,prefetch,cache");
  if (!refused.ok()) {
    std::printf("FAIL: bottleneck-scratch optimize error: %s\n",
                refused.status().ToString().c_str());
    return false;
  }
  const CacheNodeInfo refused_cache = FindCache(*refused);
  std::printf("Slow disk:  cache pass placed %d cache node(s) "
              "(bar: 0 — recompute beats a 20KB/s tier)\n",
              refused_cache.count);
  if (refused_cache.count != 0) {
    std::printf("FAIL: pass cached onto a scratch tier that bottlenecks\n");
    ok = false;
  }
  return ok;
}

}  // namespace

int main() {
  SourceSizes();
  Subsampling();
  Materialization();
  CachePlacements();
  const bool ok = TieredPlacement();
  return ok ? 0 : 1;
}
