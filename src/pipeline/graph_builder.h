// Fluent construction of GraphDefs (the "one line of code" user API's
// C++ equivalent). Each method appends a node and returns its name for
// chaining; Build() validates and returns the program. Flow, Session
// and the fleet's replay jobs all append through it, so each op's node
// encoding (op name and attrs) is written in this one place.
#pragma once

#include <string>

#include "src/pipeline/graph_def.h"

namespace plumber {

class GraphBuilder {
 public:
  GraphBuilder() = default;
  // Continues appending to an existing program.
  explicit GraphBuilder(GraphDef graph) : graph_(std::move(graph)) {}

  std::string Range(const std::string& name, int64_t count);
  std::string FileList(const std::string& name, const std::string& prefix);
  std::string TfRecord(const std::string& name, const std::string& input);
  // A record reader whose files live on a remote host: same elements
  // as TfRecord over the same file list, but every wire byte is
  // metered through a modeled remote NIC (bandwidth bytes/sec, 0 =
  // unlimited; latency seconds per transfer) and the local
  // PipelineContext NIC when one is attached.
  std::string RemoteRead(const std::string& name, const std::string& input,
                         double remote_nic_bandwidth = 0,
                         double remote_nic_latency = 0);
  std::string Interleave(const std::string& name, const std::string& input,
                         int cycle_length, int parallelism,
                         int block_length = 1);
  std::string Map(const std::string& name, const std::string& input,
                  const std::string& udf, int parallelism = 1,
                  bool deterministic = true);
  // A map stage the framework cannot parallelize (tunable=false).
  std::string SequentialMap(const std::string& name, const std::string& input,
                            const std::string& udf);
  std::string Filter(const std::string& name, const std::string& input,
                     const std::string& udf);
  std::string Shuffle(const std::string& name, const std::string& input,
                      int64_t buffer_size, int64_t seed = 7);
  std::string ShuffleAndRepeat(const std::string& name,
                               const std::string& input, int64_t buffer_size,
                               int64_t count = -1, int64_t seed = 11);
  std::string Repeat(const std::string& name, const std::string& input,
                     int64_t count = -1);
  std::string Take(const std::string& name, const std::string& input,
                   int64_t count);
  std::string Skip(const std::string& name, const std::string& input,
                   int64_t count);
  std::string Batch(const std::string& name, const std::string& input,
                    int64_t batch_size, bool drop_remainder = true);
  std::string Prefetch(const std::string& name, const std::string& input,
                       int64_t buffer_size);
  std::string Cache(const std::string& name, const std::string& input);
  std::string Zip(const std::string& name,
                  const std::vector<std::string>& inputs);
  std::string Concatenate(const std::string& name,
                          const std::vector<std::string>& inputs);

  // Finalizes with `output` as the root. Returns InvalidArgument if any
  // added node reused an existing name (the builder records the first
  // such error instead of silently dropping the node).
  StatusOr<GraphDef> Build(const std::string& output) const;

  // The nodes appended so far, and the first append error.
  const GraphDef& graph() const { return graph_; }
  const Status& status() const { return status_; }

 private:
  std::string Add(const std::string& name, const char* op,
                  std::vector<std::string> inputs,
                  std::map<std::string, AttrValue> attrs);
  GraphDef graph_;
  Status status_;  // first Add error, surfaced by Build
};

}  // namespace plumber
