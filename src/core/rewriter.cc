#include "src/core/rewriter.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/pipeline/ops.h"

namespace plumber {
namespace rewriter {

StatusOr<int> GetParallelism(const GraphDef& graph, const std::string& node) {
  const NodeDef* def = graph.FindNode(node);
  if (def == nullptr) return NotFoundError("no such node: " + node);
  if (!OpSupportsParallelism(def->op)) {
    return FailedPreconditionError(node + " has no parallelism knob");
  }
  return static_cast<int>(def->GetInt(kAttrParallelism, 1));
}

Status SetParallelism(GraphDef* graph, const std::string& node,
                      int parallelism) {
  NodeDef* def = graph->MutableNode(node);
  if (def == nullptr) return NotFoundError("no such node: " + node);
  if (!OpSupportsParallelism(def->op) || !def->GetBool(kAttrTunable, true)) {
    return FailedPreconditionError(node + " has no parallelism knob");
  }
  if (parallelism < 1) return InvalidArgumentError("parallelism < 1");
  def->attrs[kAttrParallelism] = AttrValue(parallelism);
  return OkStatus();
}

Status SetAllParallelism(GraphDef* graph, int parallelism) {
  for (const std::string& node : TunableNodes(*graph)) {
    RETURN_IF_ERROR(SetParallelism(graph, node, parallelism));
  }
  return OkStatus();
}

Status SetBufferSize(GraphDef* graph, const std::string& node, int size) {
  NodeDef* def = graph->MutableNode(node);
  if (def == nullptr) return NotFoundError("no such node: " + node);
  if (size < 1) return InvalidArgumentError("buffer size < 1");
  def->attrs[kAttrBufferSize] = AttrValue(size);
  return OkStatus();
}

StatusOr<std::string> InjectPrefetch(GraphDef* graph,
                                     const std::string& after, int buffer) {
  NodeDef node;
  node.name = graph->UniqueName(after + "_prefetch");
  node.op = "prefetch";
  node.attrs[kAttrBufferSize] = AttrValue(buffer);
  RETURN_IF_ERROR(graph->InsertAfter(after, node));
  return node.name;
}

StatusOr<std::string> InjectCache(GraphDef* graph, const std::string& after,
                                  CacheTier tier) {
  if (tier == CacheTier::kNone) {
    return InvalidArgumentError("cache tier must be memory or disk");
  }
  NodeDef node;
  node.name = graph->UniqueName(after + "_cache");
  node.op = "cache";
  if (tier == CacheTier::kDisk) {
    node.attrs[kAttrCacheTier] = AttrValue("disk");
  }
  RETURN_IF_ERROR(graph->InsertAfter(after, node));
  return node.name;
}

Status CheckShardable(const GraphDef& graph, const std::string& reader) {
  const NodeDef* reader_def = graph.FindNode(reader);
  if (reader_def == nullptr) return NotFoundError("no such node: " + reader);
  if (!OpReadsRecords(reader_def->op) || reader_def->inputs.size() != 1) {
    return FailedPreconditionError(reader +
                                   " is not a file-backed source reader");
  }
  if (OpReadsRemote(reader_def->op)) {
    return FailedPreconditionError(
        reader + " reads through one remote uplink, which N shard copies "
                 "would model as N uplinks");
  }
  const NodeDef* list_def = graph.FindNode(reader_def->inputs[0]);
  if (list_def == nullptr || list_def->op != "file_list") {
    return FailedPreconditionError(reader + " does not read from a file_list");
  }
  if (reader_def->HasAttr(kAttrShardCount) ||
      list_def->HasAttr(kAttrShardCount)) {
    return FailedPreconditionError(reader + " is already sharded");
  }
  return OkStatus();
}

StatusOr<std::string> ShardSource(GraphDef* graph, const std::string& reader,
                                  int shards) {
  if (shards < 2) return InvalidArgumentError("shard count must be >= 2");
  RETURN_IF_ERROR(CheckShardable(*graph, reader));
  // Copy before mutating: AddNode may reallocate the node vector.
  const NodeDef reader_copy = *graph->FindNode(reader);
  const NodeDef list_copy = *graph->FindNode(reader_copy.inputs[0]);

  std::vector<std::string> shard_readers;
  for (int i = 0; i < shards; ++i) {
    NodeDef list_shard = list_copy;
    list_shard.name =
        graph->UniqueName(list_copy.name + "_shard" + std::to_string(i));
    list_shard.attrs[kAttrShardIndex] = AttrValue(i);
    list_shard.attrs[kAttrShardCount] = AttrValue(shards);
    RETURN_IF_ERROR(graph->AddNode(list_shard));

    NodeDef reader_shard = reader_copy;
    reader_shard.name =
        graph->UniqueName(reader_copy.name + "_shard" + std::to_string(i));
    reader_shard.inputs = {list_shard.name};
    reader_shard.attrs[kAttrShardIndex] = AttrValue(i);
    reader_shard.attrs[kAttrShardCount] = AttrValue(shards);
    RETURN_IF_ERROR(graph->AddNode(reader_shard));
    shard_readers.push_back(reader_shard.name);
  }

  NodeDef merge;
  merge.name = graph->UniqueName(reader + "_merge");
  merge.op = "shard_merge";
  merge.inputs = shard_readers;
  RETURN_IF_ERROR(graph->AddNode(merge));

  for (const std::string& consumer : graph->Consumers(reader)) {
    NodeDef* def = graph->MutableNode(consumer);
    for (std::string& input : def->inputs) {
      if (input == reader) input = merge.name;
    }
  }
  if (graph->output() == reader) graph->SetOutput(merge.name);

  // The original reader and its file_list are orphans now; RemoveNode
  // only handles single-input pass-throughs, so erase them directly.
  auto& nodes = graph->mutable_nodes();
  nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                             [&](const NodeDef& n) {
                               return n.name == reader ||
                                      n.name == list_copy.name;
                             }),
              nodes.end());
  RETURN_IF_ERROR(graph->Validate());
  return merge.name;
}

int GraphShardIndex(const GraphDef& graph) {
  int index = -1;
  for (const auto& node : graph.nodes()) {
    if (!node.HasAttr(kAttrShardIndex)) continue;
    const int shard = static_cast<int>(node.GetInt(kAttrShardIndex, -1));
    if (shard < 0) continue;
    if (index >= 0 && shard != index) return -1;  // multi-shard graph
    index = shard;
  }
  return index;
}

StatusOr<GraphDef> ExtractShard(const GraphDef& graph, int shard) {
  const NodeDef* merge = nullptr;
  for (const auto& node : graph.nodes()) {
    if (node.op != "shard_merge") continue;
    if (merge != nullptr) {
      return FailedPreconditionError("multiple shard_merge nodes");
    }
    merge = &node;
  }
  if (merge == nullptr) {
    return FailedPreconditionError("graph has no shard_merge node");
  }
  std::string kept;
  std::set<std::string> dropped = {merge->name};
  for (const std::string& input : merge->inputs) {
    const NodeDef* reader = graph.FindNode(input);
    if (reader == nullptr) return NotFoundError("no such node: " + input);
    if (static_cast<int>(reader->GetInt(kAttrShardIndex, -1)) == shard) {
      kept = reader->name;
      continue;
    }
    dropped.insert(reader->name);
    for (const std::string& child : reader->inputs) dropped.insert(child);
  }
  if (kept.empty()) {
    return NotFoundError("no shard with index " + std::to_string(shard));
  }
  GraphDef out;
  for (const auto& node : graph.nodes()) {
    if (dropped.count(node.name) > 0) continue;
    NodeDef copy = node;
    for (std::string& input : copy.inputs) {
      if (input == merge->name) input = kept;
    }
    RETURN_IF_ERROR(out.AddNode(std::move(copy)));
  }
  out.SetOutput(graph.output() == merge->name ? kept : graph.output());
  RETURN_IF_ERROR(out.Validate());
  return out;
}

Status EnsureRootPrefetch(GraphDef* graph, int buffer) {
  const NodeDef* root = graph->FindNode(graph->output());
  if (root == nullptr) return FailedPreconditionError("no output node");
  if (root->op == "prefetch") {
    return SetBufferSize(graph, root->name, buffer);
  }
  return InjectPrefetch(graph, root->name, buffer).status();
}

Status SetTracedRate(GraphDef* graph, const std::string& node, double rate) {
  if (rate <= 0) return InvalidArgumentError("traced rate must be positive");
  NodeDef* def = graph->MutableNode(node);
  if (def == nullptr) return NotFoundError("no such node: " + node);
  def->attrs[kAttrTracedRate] = AttrValue(rate);
  return OkStatus();
}

bool HasOp(const GraphDef& graph, const std::string& op) {
  for (const auto& node : graph.nodes()) {
    if (node.op == op) return true;
  }
  return false;
}

Status ApplyParallelismPlan(GraphDef* graph, const LpPlan& plan) {
  for (const auto& [node, parallelism] : plan.parallelism) {
    const NodeDef* def = graph->FindNode(node);
    // Nodes without a knob — or pinned non-tunable by the user — are
    // skipped, not errors: a plan entry for them must not abort the
    // whole rewrite and leave the graph untuned.
    if (def == nullptr || !OpSupportsParallelism(def->op) ||
        !def->GetBool(kAttrTunable, true)) {
      continue;
    }
    RETURN_IF_ERROR(SetParallelism(graph, node, parallelism));
  }
  return OkStatus();
}

std::vector<std::string> TunableNodes(const GraphDef& graph) {
  std::vector<std::string> out;
  for (const auto& node : graph.nodes()) {
    if (OpSupportsParallelism(node.op) && node.GetBool(kAttrTunable, true)) {
      out.push_back(node.name);
    }
  }
  return out;
}

}  // namespace rewriter
}  // namespace plumber
