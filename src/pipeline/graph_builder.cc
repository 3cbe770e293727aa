#include "src/pipeline/graph_builder.h"

#include "src/pipeline/ops.h"

namespace plumber {

std::string GraphBuilder::Add(const std::string& name, const char* op,
                              std::vector<std::string> inputs,
                              std::map<std::string, AttrValue> attrs) {
  if (status_.ok()) {
    const Status status = graph_.AddNode(
        NodeDef{name, op, std::move(inputs), std::move(attrs)});
    if (!status.ok()) status_ = InvalidArgumentError(status.message());
  }
  return name;
}

std::string GraphBuilder::Range(const std::string& name, int64_t count) {
  return Add(name, "range", {}, {{kAttrCount, count}});
}

std::string GraphBuilder::FileList(const std::string& name,
                                   const std::string& prefix) {
  return Add(name, "file_list", {}, {{kAttrPrefix, prefix}});
}

std::string GraphBuilder::TfRecord(const std::string& name,
                                   const std::string& input) {
  return Add(name, "tfrecord", {input}, {});
}

std::string GraphBuilder::RemoteRead(const std::string& name,
                                     const std::string& input,
                                     double remote_nic_bandwidth,
                                     double remote_nic_latency) {
  return Add(name, "remote_read", {input},
             {{kAttrRemoteNicBandwidth, remote_nic_bandwidth},
              {kAttrRemoteNicLatency, remote_nic_latency}});
}

std::string GraphBuilder::Interleave(const std::string& name,
                                     const std::string& input,
                                     int cycle_length, int parallelism,
                                     int block_length) {
  return Add(name, "interleave", {input},
             {{kAttrCycleLength, cycle_length},
              {kAttrParallelism, parallelism},
              {kAttrBlockLength, block_length}});
}

std::string GraphBuilder::Map(const std::string& name,
                              const std::string& input,
                              const std::string& udf, int parallelism,
                              bool deterministic) {
  return Add(name, "map", {input},
             {{kAttrUdf, udf},
              {kAttrParallelism, parallelism},
              {kAttrDeterministic, deterministic}});
}

std::string GraphBuilder::SequentialMap(const std::string& name,
                                        const std::string& input,
                                        const std::string& udf) {
  return Add(name, "map", {input},
             {{kAttrUdf, udf}, {kAttrParallelism, 1}, {kAttrTunable, false}});
}

std::string GraphBuilder::Filter(const std::string& name,
                                 const std::string& input,
                                 const std::string& udf) {
  return Add(name, "filter", {input}, {{kAttrUdf, udf}});
}

std::string GraphBuilder::Shuffle(const std::string& name,
                                  const std::string& input,
                                  int64_t buffer_size, int64_t seed) {
  return Add(name, "shuffle", {input},
             {{kAttrBufferSize, buffer_size}, {kAttrSeed, seed}});
}

std::string GraphBuilder::ShuffleAndRepeat(const std::string& name,
                                           const std::string& input,
                                           int64_t buffer_size, int64_t count,
                                           int64_t seed) {
  return Add(name, "shuffle_and_repeat", {input},
             {{kAttrBufferSize, buffer_size},
              {kAttrCount, count},
              {kAttrSeed, seed}});
}

std::string GraphBuilder::Repeat(const std::string& name,
                                 const std::string& input, int64_t count) {
  return Add(name, "repeat", {input}, {{kAttrCount, count}});
}

std::string GraphBuilder::Take(const std::string& name,
                               const std::string& input, int64_t count) {
  return Add(name, "take", {input}, {{kAttrCount, count}});
}

std::string GraphBuilder::Skip(const std::string& name,
                               const std::string& input, int64_t count) {
  return Add(name, "skip", {input}, {{kAttrCount, count}});
}

std::string GraphBuilder::Batch(const std::string& name,
                                const std::string& input, int64_t batch_size,
                                bool drop_remainder) {
  return Add(name, "batch", {input},
             {{kAttrBatchSize, batch_size},
              {kAttrDropRemainder, drop_remainder}});
}

std::string GraphBuilder::Prefetch(const std::string& name,
                                   const std::string& input,
                                   int64_t buffer_size) {
  return Add(name, "prefetch", {input}, {{kAttrBufferSize, buffer_size}});
}

std::string GraphBuilder::Cache(const std::string& name,
                                const std::string& input) {
  return Add(name, "cache", {input}, {});
}

std::string GraphBuilder::Zip(const std::string& name,
                              const std::vector<std::string>& inputs) {
  return Add(name, "zip", inputs, {});
}

std::string GraphBuilder::Concatenate(
    const std::string& name, const std::vector<std::string>& inputs) {
  return Add(name, "concatenate", inputs, {});
}

StatusOr<GraphDef> GraphBuilder::Build(const std::string& output) const {
  RETURN_IF_ERROR(status_);
  GraphDef graph = graph_;
  graph.SetOutput(output);
  RETURN_IF_ERROR(graph.Validate());
  return graph;
}

}  // namespace plumber
