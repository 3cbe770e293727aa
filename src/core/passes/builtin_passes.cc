// The built-in optimizer passes and the table that names them.
// parallelism / prefetch / cache are the three rewrites of the original
// inline optimizer (paper §4.1, §B); shard_sources splits a disk-bound
// source.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/core/optimizer.h"
#include "src/core/passes/pass.h"
#include "src/core/rewriter.h"
#include "src/pipeline/ops.h"

namespace plumber {
namespace {

// Upper bound on the shard count shard_sources solves for.
constexpr int kMaxShards = 8;

// "parallelism": re-traces the current graph (at cache steady state if
// one is present), solves the CPU/disk LP, and applies the integer
// parallelism suggestions (paper §4.3).
StatusOr<PassReport> RunParallelism(OptimizationContext& ctx) {
  PassReport report;
  report.pass = "parallelism";
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

// "prefetch": injects (or resizes) a root prefetch proportional to
// pipeline idleness (paper §4.1). Plans from the latest model;
// idempotent.
StatusOr<PassReport> RunPrefetch(OptimizationContext& ctx) {
  PassReport report;
  report.pass = "prefetch";
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

// "cache": inserts a cache after the cacheable node closest to the
// root whose materialization fits a storage tier (paper §4.3 "Memory",
// §4.1 "Extensions"): DRAM first, then the machine's scratch tier when
// one is configured (MachineSpec::scratch_bytes > 0 and
// scratch.max_bandwidth > 0) and can serve the cache at least as fast
// as the uncached pipeline runs. Skips graphs that already contain a
// cache of either tier.
StatusOr<PassReport> RunCache(OptimizationContext& ctx) {
  PassReport report;
  report.pass = "cache";
  if (rewriter::HasOp(ctx.graph(), "cache")) {
    report.summary = "cache already present; skipped";
    return report;
  }
  ASSIGN_OR_RETURN(const PipelineModel* model, ctx.LatestModel());
  report.traced_rate = model->observed_rate();
  const MachineSpec& machine = ctx.machine();
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

// "shard_sources": splits a disk-bound pipeline's file source into N
// shard sources merged by a shard_merge op (rewriter::ShardSource).
// Each shard reads its round-robin partition of the file list against
// its own modeled device (ShardDevicePool), so aggregate source
// bandwidth scales by N. N is solved from the trace: the smallest
// shard count whose combined disk bound clears the CPU-bound rate,
// ceil(cpu_bound_rate / disk_bound_rate), clamped to [2, min(kMaxShards,
// num source files)]. No-op unless the LP says the pipeline is
// disk-limited. Not in the default schedule; opt in via
// "...,shard_sources".
StatusOr<PassReport> RunShardSources(OptimizationContext& ctx) {
  PassReport report;
  report.pass = "shard_sources";
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

  // The shardable source: the first record reader ShardSource can
  // split. Otherwise the summary says why the last one could not be.
  std::string reader;
  Status unshardable = NotFoundError("no file-backed source reader");
  for (const NodeDef& node : ctx.graph().nodes()) {
    if (!OpReadsRecords(node.op)) continue;
    unshardable = rewriter::CheckShardable(ctx.graph(), node.name);
    if (unshardable.ok()) {
      reader = node.name;
      break;
    }
  }
  if (reader.empty()) {
    report.summary = unshardable.message() + "; skipped";
    return report;
  }
  const std::string prefix =
      ctx.graph().FindNode(ctx.graph().FindNode(reader)->inputs[0])
          ->GetString(kAttrPrefix);
  // Round-robin partitioning caps useful shards at the file count: a
  // shard with no files is a worker thread spinning on an empty list.
  int num_files = kMaxShards;
  if (ctx.pipeline_options().fs != nullptr) {
    num_files =
        static_cast<int>(ctx.pipeline_options().fs->List(prefix).size());
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

}  // namespace

const std::vector<OptimizerPass>& OptimizerPasses() {
  // cache and shard_sources name parallelism as their follow-up:
  // caching frees the cores of the cached-away subtree, and sharding
  // shifts the bottleneck from the disk back to the CPU stages, so a
  // re-trace + re-solve redistributes the cores.
  static const std::vector<OptimizerPass> kPasses = {
      {"parallelism", nullptr, &RunParallelism},
      {"prefetch", nullptr, &RunPrefetch},
      {"cache", "parallelism", &RunCache},
      {"shard_sources", "parallelism", &RunShardSources},
  };
  return kPasses;
}

StatusOr<std::vector<const OptimizerPass*>> ParsePassSchedule(
    const std::string& spec) {
  std::vector<const OptimizerPass*> schedule;
  if (spec.empty()) return schedule;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string name = spec.substr(start, comma - start);
    // Trim surrounding whitespace.
    const size_t first = name.find_first_not_of(" \t");
    if (first == std::string::npos) {
      return InvalidArgumentError("empty pass name in schedule: \"" + spec +
                                  "\"");
    }
    name = name.substr(first, name.find_last_not_of(" \t") - first + 1);
    const OptimizerPass* found = nullptr;
    std::string known;
    for (const OptimizerPass& pass : OptimizerPasses()) {
      if (name == pass.name) found = &pass;
      known += (known.empty() ? "" : ", ") + std::string(pass.name);
    }
    if (found == nullptr) {
      return InvalidArgumentError("unknown optimizer pass \"" + name +
                                  "\" in schedule (known: " + known + ")");
    }
    schedule.push_back(found);
    start = comma + 1;
  }
  return schedule;
}

}  // namespace plumber
