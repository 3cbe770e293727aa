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

namespace {

// One row per op kind: its factory and every fact the engine, model
// and rewriter read about it.
struct OpInfo {
  DatasetFactory factory;
  // Inputs a node of this op takes: at least min_inputs, and at most
  // max_inputs unless that is kUnbounded.
  int min_inputs;
  int max_inputs;
  bool tunable = false;  // has a `parallelism` knob
  bool reads_records = false;
  bool reads_remote = false;
};

constexpr int kUnbounded = -1;

const OpInfo* FindOp(const std::string& op) {
  // Rows: {factory, min_inputs, max_inputs, tunable, reads_records,
  // reads_remote}; flags left out are false.
  static const std::map<std::string, OpInfo> kOps = {
      {"range", {&MakeRangeDataset, 0, 0}},
      {"file_list", {&MakeFileListDataset, 0, 0}},
      {"tfrecord", {&MakeTfRecordReader, 1, 1, false, true}},
      {"remote_read", {&MakeRemoteReader, 1, 1, false, true, true}},
      {"interleave", {&MakeInterleaveReader, 1, 1, true, true}},
      {"map", {&MakeMapDataset, 1, 1, true}},
      {"filter", {&MakeFilterDataset, 1, 1}},
      {"shuffle", {&MakeShuffleDataset, 1, 1}},
      {"shuffle_and_repeat", {&MakeShuffleAndRepeatDataset, 1, 1}},
      {"repeat", {&MakeRepeatDataset, 1, 1}},
      {"take", {&MakeTakeDataset, 1, 1}},
      {"skip", {&MakeSkipDataset, 1, 1}},
      {"batch", {&MakeBatchDataset, 1, 1}},
      {"prefetch", {&MakePrefetchDataset, 1, 1}},
      {"cache", {&MakeCacheDataset, 1, 1}},
      {"zip", {&MakeZipDataset, 2, kUnbounded}},
      {"concatenate", {&MakeConcatenateDataset, 2, kUnbounded}},
      {"shard_merge", {&MakeShardMergeDataset, 1, kUnbounded}},
  };
  auto it = kOps.find(op);
  return it == kOps.end() ? nullptr : &it->second;
}

}  // namespace

bool OpSupportsParallelism(const std::string& op) {
  const OpInfo* info = FindOp(op);
  return info != nullptr && info->tunable;
}

bool OpReadsRecords(const std::string& op) {
  const OpInfo* info = FindOp(op);
  return info != nullptr && info->reads_records;
}

bool OpReadsRemote(const std::string& op) {
  const OpInfo* info = FindOp(op);
  return info != nullptr && info->reads_remote;
}

StatusOr<DatasetPtr> InstantiateGraph(const GraphDef& graph,
                                      PipelineContext* ctx) {
  ASSIGN_OR_RETURN(std::vector<std::string> order, graph.TopologicalOrder());
  std::map<std::string, DatasetPtr> built;
  for (const std::string& name : order) {
    const NodeDef* def = graph.FindNode(name);
    const OpInfo* info = FindOp(def->op);
    if (info == nullptr) return UnimplementedError("unknown op: " + def->op);
    const int num_inputs = static_cast<int>(def->inputs.size());
    if (num_inputs < info->min_inputs ||
        (info->max_inputs != kUnbounded && num_inputs > info->max_inputs)) {
      return InvalidArgumentError(
          def->op + " node '" + name + "' takes " +
          (info->max_inputs == info->min_inputs ? "" : "at least ") +
          std::to_string(info->min_inputs) + " input(s), got " +
          std::to_string(num_inputs));
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
                     info->factory(*def, std::move(inputs), ctx));
    built.emplace(name, std::move(ds));
  }
  return built.at(graph.output());
}

}  // namespace plumber
