#include "src/pipeline/graph_builder.h"

#include "src/pipeline/ops.h"

namespace plumber {

std::string GraphBuilder::Add(NodeDef def) {
  const std::string name = def.name;
  if (status_.ok()) {
    const Status status = graph_.AddNode(std::move(def));
    if (!status.ok()) status_ = InvalidArgumentError(status.message());
  }
  return name;
}

std::string GraphBuilder::Range(const std::string& name, int64_t count) {
  NodeDef def;
  def.name = name;
  def.op = "range";
  def.attrs[kAttrCount] = AttrValue(count);
  return Add(std::move(def));
}

std::string GraphBuilder::FileList(const std::string& name,
                                   const std::string& prefix) {
  NodeDef def;
  def.name = name;
  def.op = "file_list";
  def.attrs[kAttrPrefix] = AttrValue(prefix);
  return Add(std::move(def));
}

std::string GraphBuilder::TfRecord(const std::string& name,
                                   const std::string& input) {
  NodeDef def;
  def.name = name;
  def.op = "tfrecord";
  def.inputs = {input};
  return Add(std::move(def));
}

std::string GraphBuilder::RemoteRead(const std::string& name,
                                     const std::string& input,
                                     double remote_nic_bandwidth,
                                     double remote_nic_latency) {
  NodeDef def;
  def.name = name;
  def.op = "remote_read";
  def.inputs = {input};
  def.attrs[kAttrRemoteNicBandwidth] = AttrValue(remote_nic_bandwidth);
  def.attrs[kAttrRemoteNicLatency] = AttrValue(remote_nic_latency);
  return Add(std::move(def));
}

std::string GraphBuilder::Interleave(const std::string& name,
                                     const std::string& input,
                                     int cycle_length, int parallelism,
                                     int block_length) {
  NodeDef def;
  def.name = name;
  def.op = "interleave";
  def.inputs = {input};
  def.attrs[kAttrCycleLength] = AttrValue(cycle_length);
  def.attrs[kAttrParallelism] = AttrValue(parallelism);
  def.attrs[kAttrBlockLength] = AttrValue(block_length);
  return Add(std::move(def));
}

std::string GraphBuilder::Map(const std::string& name,
                              const std::string& input,
                              const std::string& udf, int parallelism,
                              bool deterministic) {
  NodeDef def;
  def.name = name;
  def.op = "map";
  def.inputs = {input};
  def.attrs[kAttrUdf] = AttrValue(udf);
  def.attrs[kAttrParallelism] = AttrValue(parallelism);
  def.attrs[kAttrDeterministic] = AttrValue(deterministic);
  return Add(std::move(def));
}

std::string GraphBuilder::SequentialMap(const std::string& name,
                                        const std::string& input,
                                        const std::string& udf) {
  NodeDef def;
  def.name = name;
  def.op = "map";
  def.inputs = {input};
  def.attrs[kAttrUdf] = AttrValue(udf);
  def.attrs[kAttrParallelism] = AttrValue(1);
  def.attrs[kAttrTunable] = AttrValue(false);
  return Add(std::move(def));
}

std::string GraphBuilder::Filter(const std::string& name,
                                 const std::string& input,
                                 const std::string& udf) {
  NodeDef def;
  def.name = name;
  def.op = "filter";
  def.inputs = {input};
  def.attrs[kAttrUdf] = AttrValue(udf);
  return Add(std::move(def));
}

std::string GraphBuilder::Shuffle(const std::string& name,
                                  const std::string& input,
                                  int64_t buffer_size, int64_t seed) {
  NodeDef def;
  def.name = name;
  def.op = "shuffle";
  def.inputs = {input};
  def.attrs[kAttrBufferSize] = AttrValue(buffer_size);
  def.attrs[kAttrSeed] = AttrValue(seed);
  return Add(std::move(def));
}

std::string GraphBuilder::ShuffleAndRepeat(const std::string& name,
                                           const std::string& input,
                                           int64_t buffer_size, int64_t count,
                                           int64_t seed) {
  NodeDef def;
  def.name = name;
  def.op = "shuffle_and_repeat";
  def.inputs = {input};
  def.attrs[kAttrBufferSize] = AttrValue(buffer_size);
  def.attrs[kAttrCount] = AttrValue(count);
  def.attrs[kAttrSeed] = AttrValue(seed);
  return Add(std::move(def));
}

std::string GraphBuilder::Repeat(const std::string& name,
                                 const std::string& input, int64_t count) {
  NodeDef def;
  def.name = name;
  def.op = "repeat";
  def.inputs = {input};
  def.attrs[kAttrCount] = AttrValue(count);
  return Add(std::move(def));
}

std::string GraphBuilder::Take(const std::string& name,
                               const std::string& input, int64_t count) {
  NodeDef def;
  def.name = name;
  def.op = "take";
  def.inputs = {input};
  def.attrs[kAttrCount] = AttrValue(count);
  return Add(std::move(def));
}

std::string GraphBuilder::Skip(const std::string& name,
                               const std::string& input, int64_t count) {
  NodeDef def;
  def.name = name;
  def.op = "skip";
  def.inputs = {input};
  def.attrs[kAttrCount] = AttrValue(count);
  return Add(std::move(def));
}

std::string GraphBuilder::Batch(const std::string& name,
                                const std::string& input, int64_t batch_size,
                                bool drop_remainder) {
  NodeDef def;
  def.name = name;
  def.op = "batch";
  def.inputs = {input};
  def.attrs[kAttrBatchSize] = AttrValue(batch_size);
  def.attrs[kAttrDropRemainder] = AttrValue(drop_remainder);
  return Add(std::move(def));
}

std::string GraphBuilder::Prefetch(const std::string& name,
                                   const std::string& input,
                                   int64_t buffer_size) {
  NodeDef def;
  def.name = name;
  def.op = "prefetch";
  def.inputs = {input};
  def.attrs[kAttrBufferSize] = AttrValue(buffer_size);
  return Add(std::move(def));
}

std::string GraphBuilder::Cache(const std::string& name,
                                const std::string& input) {
  NodeDef def;
  def.name = name;
  def.op = "cache";
  def.inputs = {input};
  return Add(std::move(def));
}

std::string GraphBuilder::Zip(const std::string& name,
                              const std::vector<std::string>& inputs) {
  NodeDef node;
  node.name = name;
  node.op = "zip";
  node.inputs = inputs;
  Add(std::move(node));
  return name;
}

std::string GraphBuilder::Concatenate(
    const std::string& name, const std::vector<std::string>& inputs) {
  NodeDef node;
  node.name = name;
  node.op = "concatenate";
  node.inputs = inputs;
  Add(std::move(node));
  return name;
}

StatusOr<GraphDef> GraphBuilder::Build(const std::string& output) const {
  RETURN_IF_ERROR(status_);
  GraphDef graph = graph_;
  graph.SetOutput(output);
  RETURN_IF_ERROR(graph.Validate());
  return graph;
}

}  // namespace plumber
