#include "src/core/passes/builtin_passes.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/core/optimizer.h"
#include "src/core/rewriter.h"
#include "src/pipeline/ops.h"

namespace plumber {

StatusOr<PassReport> ParallelismPass::Run(OptimizationContext& ctx) const {
  PassReport report;
  report.pass = name();
  ASSIGN_OR_RETURN(const PipelineModel* model, ctx.FreshModel());
  report.traced_rate = model->observed_rate();
  report.plan = PlanAllocation(*model, ctx.options().lp_options);
  RETURN_IF_ERROR(rewriter::ApplyParallelismPlan(&ctx.graph(), report.plan));
  ctx.MarkGraphChanged();
  report.changed = true;
  std::ostringstream os;
  os << "lp rate=" << report.plan.predicted_rate
     << " bottleneck=" << report.plan.bottleneck;
  // Surface the binding resource class next to the rate so a pass log
  // shows *why* the rate stops where it does.
  if (report.plan.network_limited) {
    os << " network_limited";
  } else if (report.plan.disk_limited) {
    os << " disk_limited";
  }
  report.summary = os.str();
  return report;
}

StatusOr<PassReport> PrefetchPass::Run(OptimizationContext& ctx) const {
  PassReport report;
  report.pass = name();
  ASSIGN_OR_RETURN(const PipelineModel* model, ctx.LatestModel());
  report.traced_rate = model->observed_rate();
  report.prefetch = PlanPrefetch(*model);
  RETURN_IF_ERROR(rewriter::EnsureRootPrefetch(&ctx.graph(),
                                               report.prefetch.root_buffer));
  ctx.MarkGraphChanged();
  report.changed = true;
  report.summary =
      "prefetch buffer=" + std::to_string(report.prefetch.root_buffer);
  return report;
}

StatusOr<PassReport> CachePass::Run(OptimizationContext& ctx) const {
  PassReport report;
  report.pass = name();
  if (rewriter::HasOp(ctx.graph(), "cache")) {
    report.summary = "cache already present; skipped";
    return report;
  }
  ASSIGN_OR_RETURN(const PipelineModel* model, ctx.LatestModel());
  report.traced_rate = model->observed_rate();
  const MachineSpec& machine = ctx.options().machine;
  CachePlanOptions copts;
  copts.memory_bytes = machine.memory_bytes;
  copts.disk_free_bytes = machine.scratch_bytes;
  copts.disk_read_bandwidth = machine.scratch.max_bandwidth;
  report.cache = PlanCache(*model, copts, ctx.options().lp_options);
  if (!report.cache.feasible) {
    report.summary = "no cacheable materialization fits a storage tier";
    return report;
  }
  RETURN_IF_ERROR(rewriter::InjectCache(&ctx.graph(), report.cache.node,
                                        report.cache.tier)
                      .status());
  ctx.MarkGraphChanged();
  report.changed = true;
  std::ostringstream os;
  os << "cache after " << report.cache.node << " ("
     << static_cast<uint64_t>(report.cache.materialized_bytes) << " bytes)";
  if (report.cache.tier == CacheTier::kDisk) {
    os << " on disk, serve_rate=" << report.cache.disk_serve_rate;
  }
  report.summary = os.str();
  return report;
}

StatusOr<PassReport> BatchSizePass::Run(OptimizationContext& ctx) const {
  PassReport report;
  report.pass = name();
  // > 0 is an explicit user choice — including 1, the classic
  // element-at-a-time engine; only the unset default (0) is autotuned.
  if (ctx.options().engine_batch_size > 0) {
    report.summary = "explicit engine_batch_size=" +
                     std::to_string(ctx.options().engine_batch_size) +
                     " set; autotune skipped";
    return report;
  }
  ASSIGN_OR_RETURN(const PipelineModel* model, ctx.LatestModel());
  report.traced_rate = model->observed_rate();

  // Engine batching amortizes per-element queue handoffs, which only
  // exist on queue-backed (parallelism >= 2) stages. The stage whose
  // overhead bounds throughput is the parallel stage with the lowest
  // aggregate capacity; its traced per-element cost decides the batch.
  // Parallelism is read from the current graph (post-LP), cost from the
  // latest model (stage service times don't change with parallelism).
  const NodeModel* bottleneck = nullptr;
  int bottleneck_parallelism = 1;
  double bottleneck_capacity = std::numeric_limits<double>::infinity();
  // Stages too cheap for the model to rate (rate_per_core == 0) can't
  // bound throughput; they only stand in when no rated stage exists —
  // then the pipeline is engine-overhead-bound by definition.
  const NodeModel* cheapest_unrated = nullptr;
  int cheapest_unrated_parallelism = 1;
  for (const NodeDef& node : ctx.graph().nodes()) {
    if (!OpSupportsParallelism(node.op)) continue;
    const int parallelism =
        static_cast<int>(node.GetInt(kAttrParallelism, 1));
    if (parallelism < 2) continue;
    const NodeModel* nm = model->Find(node.name);
    if (nm == nullptr || nm->completions == 0) continue;
    if (nm->rate_per_core <= 0) {
      if (cheapest_unrated == nullptr ||
          nm->service_seconds < cheapest_unrated->service_seconds) {
        cheapest_unrated = nm;
        cheapest_unrated_parallelism = parallelism;
      }
      continue;
    }
    const double capacity = nm->rate_per_core * parallelism;
    if (capacity < bottleneck_capacity) {
      bottleneck_capacity = capacity;
      bottleneck = nm;
      bottleneck_parallelism = parallelism;
    }
  }
  if (bottleneck == nullptr) {
    bottleneck = cheapest_unrated;
    bottleneck_parallelism = cheapest_unrated_parallelism;
  }
  if (bottleneck == nullptr) {
    report.summary = "no parallel stage to amortize; engine batch stays 1";
    return report;
  }

  const double service_seconds = bottleneck->service_seconds;
  const double overhead_seconds = kPerElementOverheadNs * 1e-9;
  // Smallest power of two so that overhead/batch <= fraction * service;
  // stages whose work already dwarfs the overhead stay at 1.
  int batch = 1;
  const double needed =
      overhead_seconds /
      std::max(kTargetOverheadFraction * service_seconds, 1e-12);
  while (batch < kMaxEngineBatch && static_cast<double>(batch) < needed) {
    batch *= 2;
  }
  std::ostringstream stage;
  stage << bottleneck->name << " at "
        << static_cast<int64_t>(service_seconds * 1e9) << "ns/elem, p="
        << bottleneck_parallelism;
  if (batch <= 1) {
    report.summary = "per-element work dominates engine overhead (" +
                     stage.str() + "); engine batch stays 1";
    return report;
  }
  RETURN_IF_ERROR(rewriter::SetEngineBatchSize(&ctx.graph(), batch));
  ctx.MarkGraphChanged();
  report.changed = true;
  report.engine_batch_size = batch;
  report.summary =
      "engine batch " + std::to_string(batch) + " (" + stage.str() + ")";
  return report;
}

StatusOr<PassReport> ShardSourcesPass::Run(OptimizationContext& ctx) const {
  PassReport report;
  report.pass = name();
  if (rewriter::HasOp(ctx.graph(), "shard_merge")) {
    report.summary = "source already sharded; skipped";
    return report;
  }
  if (ctx.options().lp_options.disk_bandwidth <= 0) {
    report.summary = "no modeled disk bandwidth; skipped";
    return report;
  }
  ASSIGN_OR_RETURN(const PipelineModel* model, ctx.LatestModel());
  report.traced_rate = model->observed_rate();
  const LpPlan plan = PlanAllocation(*model, ctx.options().lp_options);
  report.plan = plan;
  // A NIC-capped pipeline gains nothing from sharding: every shard's
  // bytes still cross the same wire, so N disks cannot feed a rate the
  // network refuses to carry. Refuse rather than spend worker threads.
  if (plan.network_limited) {
    std::ostringstream os;
    os << "pipeline is network-limited (nic bound "
       << plan.network_bound_rate
       << "); sharding disks cannot raise a NIC-capped rate; skipped";
    report.summary = os.str();
    return report;
  }
  if (!plan.disk_limited || plan.disk_bound_rate <= 0) {
    report.summary = "pipeline is not disk-limited; skipped";
    return report;
  }

  // The shardable source: a record reader over a file_list child.
  std::string reader;
  std::string prefix;
  for (const NodeDef& node : ctx.graph().nodes()) {
    if (node.op != "tfrecord" && node.op != "remote_read" &&
        node.op != "interleave") {
      continue;
    }
    if (node.inputs.size() != 1) continue;
    const NodeDef* child = ctx.graph().FindNode(node.inputs[0]);
    if (child == nullptr || child->op != "file_list") continue;
    reader = node.name;
    prefix = child->GetString(kAttrPrefix);
    break;
  }
  if (reader.empty()) {
    report.summary = "no file-backed source reader; skipped";
    return report;
  }
  // Round-robin partitioning caps useful shards at the file count: a
  // shard with no files is a worker thread spinning on an empty list.
  int num_files = kMaxShards;
  if (ctx.options().fs != nullptr) {
    num_files = static_cast<int>(ctx.options().fs->List(prefix).size());
  }
  if (num_files < 2) {
    report.summary = "fewer than 2 source files; cannot shard";
    return report;
  }
  // Smallest N whose combined disk bound clears the target rate: the
  // CPU bound, or the NIC bound when a modeled network would cap the
  // pipeline first — asking for more disks than the wire can feed just
  // wastes reader threads.
  double target_rate = plan.cpu_bound_rate;
  if (plan.network_bound_rate >= 0 && plan.network_bound_rate < target_rate) {
    target_rate = plan.network_bound_rate;
  }
  const int want =
      static_cast<int>(std::ceil(target_rate / plan.disk_bound_rate));
  const int shards =
      std::min({std::max(2, want), kMaxShards, num_files});

  ASSIGN_OR_RETURN(const std::string merge,
                   rewriter::ShardSource(&ctx.graph(), reader, shards));
  ctx.MarkGraphChanged();
  report.changed = true;
  report.shard_count = shards;
  std::ostringstream os;
  os << shards << " shards of " << reader << " (disk bound "
     << plan.disk_bound_rate << " vs cpu bound " << plan.cpu_bound_rate
     << ") merged at " << merge;
  report.summary = os.str();
  return report;
}

}  // namespace plumber
