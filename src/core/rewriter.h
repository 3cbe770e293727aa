// Graph rewriting utilities (paper §B "Graph Rewrites").
//
// The three mechanisms the paper requires of a graph-rewriting utility:
// (1) get a node's performance parameter, (2) set a node's parallelism,
// (3) insert a new node after a selected node (caching, prefetching).
// All rewrites preserve the Dataset signature: the rewritten graph is a
// drop-in replacement for the original.
#pragma once

#include "src/core/planner.h"
#include "src/pipeline/graph_def.h"

namespace plumber {
namespace rewriter {

StatusOr<int> GetParallelism(const GraphDef& graph, const std::string& node);
Status SetParallelism(GraphDef* graph, const std::string& node,
                      int parallelism);

// Sets every tunable parallelism knob to `parallelism` (HEURISTIC).
Status SetAllParallelism(GraphDef* graph, int parallelism);

Status SetBufferSize(GraphDef* graph, const std::string& node, int size);

// Inserts a prefetch node after `after` with the given buffer size.
// Returns the new node's name.
StatusOr<std::string> InjectPrefetch(GraphDef* graph,
                                     const std::string& after, int buffer);

// Inserts a cache node of the given tier after `after`. Returns the new
// node's name. A memory-tier node carries no tier attr; kDisk stamps
// kAttrCacheTier = "disk", which the execution layer serves through the
// machine's modeled scratch device. kNone is an error.
StatusOr<std::string> InjectCache(GraphDef* graph, const std::string& after,
                                  CacheTier tier = CacheTier::kMemory);

// OK if ShardSource can split `reader`: a local record reader
// (tfrecord or interleave) over an unsharded file_list child. A
// remote_read is not shardable: its remote uplink is one device per
// dataset, so N shard copies would model N uplinks. The error says why.
Status CheckShardable(const GraphDef& graph, const std::string& reader);

// Splits the source subtree feeding `reader` (see CheckShardable) into
// `shards` clones, each stamped with kAttrShardIndex/kAttrShardCount
// so (a) its file_list keeps only its round-robin partition of the
// file list and (b) the execution layer reads it against its own
// modeled shard device (ShardDevicePool).
// The clones feed a new "shard_merge" node that replaces `reader` for
// all consumers (and the graph output). Returns the merge node's name.
StatusOr<std::string> ShardSource(GraphDef* graph, const std::string& reader,
                                  int shards);

// The unique kAttrShardIndex stamped across the graph's nodes — e.g.
// on a per-shard subgraph cut out by ExtractShard — or -1 when the
// graph is unsharded or holds several shards (a full ShardSource
// rewrite). FleetSession uses this to pin single-shard jobs to hosts.
int GraphShardIndex(const GraphDef& graph);

// Cuts the per-shard subgraph for `shard` out of a graph rewritten by
// ShardSource: keeps that shard's source chain, drops the shard_merge
// and the other shards, and rewires the merge's consumers to the kept
// reader. The result is a complete single-shard program a fleet host
// can run alone; GraphShardIndex on it returns `shard`.
StatusOr<GraphDef> ExtractShard(const GraphDef& graph, int shard);

// Ensures the graph root is a prefetch (injects one if missing).
Status EnsureRootPrefetch(GraphDef* graph, int buffer);

// Records a traced per-core processing rate (minibatches/sec/core) on
// a node, so measured demand travels with the program the way its
// parallelism does. The optimizer stamps these after its final
// trace; the multi-job arbiter's DemandFromGraph reads them back.
Status SetTracedRate(GraphDef* graph, const std::string& node, double rate);

// True if any node of the given op kind exists.
bool HasOp(const GraphDef& graph, const std::string& op);

// Applies an LP plan's integer parallelism suggestions.
Status ApplyParallelismPlan(GraphDef* graph, const LpPlan& plan);

// Names of nodes with a tunable parallelism knob.
std::vector<std::string> TunableNodes(const GraphDef& graph);

}  // namespace rewriter
}  // namespace plumber
