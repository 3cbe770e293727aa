// The built-in optimizer passes, registered in PassRegistry::Global()
// under the names in comments. ParallelismPass / PrefetchPass /
// CachePass are the three rewrites of the original inline optimizer
// (paper §4.1, §B); ShardSourcesPass splits a disk-bound source.
#pragma once

#include "src/core/passes/pass.h"

namespace plumber {

// "parallelism": re-traces the current graph (at cache steady state if
// one is present), solves the CPU/disk LP, and applies the integer
// parallelism suggestions (paper §4.3).
class ParallelismPass : public OptimizerPass {
 public:
  const char* name() const override { return "parallelism"; }
  StatusOr<PassReport> Run(OptimizationContext& ctx) const override;
};

// "prefetch": injects (or resizes) a root prefetch proportional to
// pipeline idleness (paper §4.1). Plans from the latest model;
// idempotent.
class PrefetchPass : public OptimizerPass {
 public:
  const char* name() const override { return "prefetch"; }
  StatusOr<PassReport> Run(OptimizationContext& ctx) const override;
};

// "cache": inserts a cache after the cacheable node closest to the
// root whose materialization fits a storage tier (paper §4.3 "Memory",
// §4.1 "Extensions"): DRAM first, then the machine's scratch tier when
// one is configured (MachineSpec::scratch_bytes > 0 and
// scratch.max_bandwidth > 0) and can serve the cache at least as fast
// as the uncached pipeline runs. Skips graphs that already contain a
// cache of either tier.
class CachePass : public OptimizerPass {
 public:
  const char* name() const override { return "cache"; }
  // Caching frees the cores of the cached-away subtree; a re-trace +
  // re-solve redistributes them (the default schedule's trailing
  // "parallelism").
  const char* followup() const override { return "parallelism"; }
  StatusOr<PassReport> Run(OptimizationContext& ctx) const override;
};

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
class ShardSourcesPass : public OptimizerPass {
 public:
  static constexpr int kMaxShards = 8;

  const char* name() const override { return "shard_sources"; }
  // Sharding shifts the bottleneck from the disk back to the CPU
  // stages; a re-solve retunes their parallelism for the new rate.
  const char* followup() const override { return "parallelism"; }
  StatusOr<PassReport> Run(OptimizationContext& ctx) const override;
};

}  // namespace plumber
