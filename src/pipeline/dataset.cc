#include "src/pipeline/dataset.h"

#include <map>
#include <optional>

#include "src/pipeline/ops.h"

namespace plumber {

Status IteratorBase::GetNext(Element* out, bool* end_of_sequence) {
  if (ctx_->is_cancelled()) return CancelledError("pipeline cancelled");
  std::optional<CpuAccountingScope> scope;
  if (ctx_->tracing_enabled) scope.emplace(stats_);
  Status status = GetNextInternal(out, end_of_sequence);
  if (status.ok() && !*end_of_sequence) {
    stats_->RecordProduced(out->TotalBytes());
  }
  return status;
}

Status IteratorBase::GetNextBatch(std::vector<Element>* out,
                                  size_t max_elements,
                                  bool* end_of_sequence) {
  if (ctx_->is_cancelled()) return CancelledError("pipeline cancelled");
  std::optional<CpuAccountingScope> scope;
  if (ctx_->tracing_enabled) scope.emplace(stats_);
  *end_of_sequence = false;
  const size_t before = out->size();
  Status status = GetNextBatchInternal(out, max_elements, end_of_sequence);
  if (status.ok() && out->size() > before) {
    uint64_t bytes = 0;
    for (size_t i = before; i < out->size(); ++i) {
      bytes += (*out)[i].TotalBytes();
    }
    stats_->RecordProducedBatch(out->size() - before, bytes);
  }
  return status;
}

Status IteratorBase::GetNextBatchInternal(std::vector<Element>* out,
                                          size_t max_elements,
                                          bool* end_of_sequence) {
  for (size_t i = 0; i < max_elements; ++i) {
    Element element;
    bool end = false;
    RETURN_IF_ERROR(GetNextInternal(&element, &end));
    if (end) {
      *end_of_sequence = true;
      return OkStatus();
    }
    out->push_back(std::move(element));
  }
  return OkStatus();
}

bool OpSupportsParallelism(const std::string& op) {
  return op == "map" || op == "interleave";
}

bool OpReadsRecords(const std::string& op) {
  return op == "tfrecord" || op == "remote_read" || op == "interleave";
}

bool OpReadsRemote(const std::string& op) { return op == "remote_read"; }

StatusOr<DatasetPtr> InstantiateGraph(const GraphDef& graph,
                                      PipelineContext* ctx) {
  static const std::map<std::string, DatasetFactory> kFactories = {
      {"range", &MakeRangeDataset},
      {"file_list", &MakeFileListDataset},
      {"tfrecord", &MakeTfRecordReader},
      {"remote_read", &MakeRemoteReader},
      {"interleave", &MakeInterleaveReader},
      {"map", &MakeMapDataset},
      {"filter", &MakeFilterDataset},
      {"shuffle", &MakeShuffleDataset},
      {"shuffle_and_repeat", &MakeShuffleAndRepeatDataset},
      {"repeat", &MakeRepeatDataset},
      {"take", &MakeTakeDataset},
      {"skip", &MakeSkipDataset},
      {"batch", &MakeBatchDataset},
      {"prefetch", &MakePrefetchDataset},
      {"cache", &MakeCacheDataset},
      {"zip", &MakeZipDataset},
      {"concatenate", &MakeConcatenateDataset},
      {"shard_merge", &MakeShardMergeDataset},
  };
  ASSIGN_OR_RETURN(std::vector<std::string> order, graph.TopologicalOrder());
  std::map<std::string, DatasetPtr> built;
  for (const std::string& name : order) {
    const NodeDef* def = graph.FindNode(name);
    auto factory = kFactories.find(def->op);
    if (factory == kFactories.end()) {
      return UnimplementedError("unknown op: " + def->op);
    }
    std::vector<DatasetPtr> inputs;
    inputs.reserve(def->inputs.size());
    for (const std::string& input : def->inputs) {
      auto it = built.find(input);
      if (it == built.end()) {
        return InternalError("input not built: " + input);
      }
      inputs.push_back(it->second);
    }
    ASSIGN_OR_RETURN(DatasetPtr ds,
                     factory->second(*def, std::move(inputs), ctx));
    built.emplace(name, std::move(ds));
  }
  return built.at(graph.output());
}

}  // namespace plumber
