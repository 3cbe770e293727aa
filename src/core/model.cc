#include "src/core/model.h"

#include <algorithm>
#include <cmath>

#include "src/pipeline/ops.h"

namespace plumber {
namespace {

// CPU time below this is treated as free for allocation purposes: such
// nodes (shuffle buffers, take/skip) cannot become CPU bottlenecks at
// any realistic rate.
constexpr double kNegligibleCpuSeconds = 1e-5;

bool OpIsInfiniteRepeat(const NodeDef& def) {
  return (def.op == "repeat" || def.op == "shuffle_and_repeat") &&
         def.GetInt(kAttrCount, -1) < 0;
}

}  // namespace

StatusOr<PipelineModel> PipelineModel::Build(const TraceSnapshot& trace,
                                             const UdfRegistry* udfs) {
  PipelineModel model;
  model.trace_ = trace;
  ASSIGN_OR_RETURN(std::vector<std::string> topo,
                   trace.graph.TopologicalOrder());
  // topo is children-first; we want root-first.
  std::vector<std::string> root_first(topo.rbegin(), topo.rend());

  // Pass 1: raw per-node statistics.
  for (const std::string& name : root_first) {
    const NodeDef* def = trace.graph.FindNode(name);
    NodeModel node;
    node.name = name;
    node.op = def->op;
    node.inputs = def->inputs;
    node.parallelizable =
        OpSupportsParallelism(def->op) && def->GetBool(kAttrTunable, true);
    node.is_source = OpReadsRecords(def->op);
    node.parallelism = 1;
    if (const auto* s = trace.FindStats(name)) {
      node.completions = s->elements_produced;
      node.cpu_seconds = s->cpu_ns * 1e-9;
      node.bytes_read = s->bytes_read;
      node.network_bytes = s->network_bytes;
      node.parallelism = std::max(1, s->parallelism);
      node.udf_name = s->udf_name;
      if (node.completions > 0) {
        node.bytes_per_element =
            static_cast<double>(s->bytes_produced) / node.completions;
        node.service_seconds = node.cpu_seconds / node.completions;
      }
    }
    if (node.udf_name.empty() && def->HasAttr(kAttrUdf)) {
      node.udf_name = def->GetString(kAttrUdf);
    }
    node.observed_cores =
        trace.wall_seconds > 0 ? node.cpu_seconds / trace.wall_seconds : 0;
    node.negligible_cost = node.cpu_seconds < kNegligibleCpuSeconds;
    model.index_[name] = model.nodes_.size();
    model.nodes_.push_back(std::move(node));
  }

  // Pass 2 (root-down): visit ratios and CPU rates.
  for (auto& node : model.nodes_) {
    if (node.name == trace.graph.output()) {
      node.visit_ratio = 1.0;
      node.local_ratio = 1.0;
    } else {
      const std::vector<std::string> consumers =
          trace.graph.Consumers(node.name);
      if (consumers.empty()) continue;
      const NodeModel* parent = model.Find(consumers[0]);
      if (parent == nullptr || parent->completions == 0) continue;
      node.local_ratio = static_cast<double>(node.completions) /
                         static_cast<double>(parent->completions);
      node.visit_ratio = node.local_ratio * parent->visit_ratio;
    }
    if (node.visit_ratio > 0 && node.cpu_seconds > 0 &&
        node.completions > 0) {
      // Ri = (elements per core-second) / (elements per minibatch).
      node.rate_per_core =
          (node.completions / node.cpu_seconds) / node.visit_ratio;
    }
    if (node.bytes_read > 0 && trace.root_completions > 0) {
      node.disk_bytes_per_minibatch =
          static_cast<double>(node.bytes_read) / trace.root_completions;
    }
    if (node.network_bytes > 0 && trace.root_completions > 0) {
      node.network_bytes_per_minibatch =
          static_cast<double>(node.network_bytes) / trace.root_completions;
    }
  }

  // Pass 3 (source-up, i.e. reverse of root-first order): cardinality,
  // materialization size, random taint, below-cache marking.
  const auto source_sizes = model.EstimateSourceSizes();
  for (auto it = model.nodes_.rbegin(); it != model.nodes_.rend(); ++it) {
    NodeModel& node = *it;
    const NodeDef* def = trace.graph.FindNode(node.name);

    // Child-derived quantities (single-input chains; multi-input nodes
    // aggregate by summing cardinalities).
    double child_cardinality = kModelUnknown;
    bool child_taint = false;
    bool child_below_cache = false;
    for (const std::string& input : node.inputs) {
      const NodeModel* child = model.Find(input);
      if (child == nullptr) continue;
      child_taint = child_taint || child->random_tainted;
      child_below_cache = child_below_cache || child->below_cache;
      if (child->cardinality == kModelInfinite ||
          child_cardinality == kModelInfinite) {
        child_cardinality = kModelInfinite;
      } else if (child->cardinality >= 0) {
        child_cardinality = std::max(0.0, child_cardinality) +
                            child->cardinality;
      }
    }

    // Random taint: a transitively random UDF makes this node and
    // everything downstream uncacheable (paper §B.1).
    node.random_tainted = child_taint;
    if (!node.udf_name.empty() && udfs != nullptr &&
        udfs->IsTransitivelyRandom(node.udf_name)) {
      node.random_tainted = true;
    }

    // Below-cache: children of a cache node have no steady-state cost.
    // (Transitive propagation to the whole upstream subtree happens in
    // the fixed-point loop after this pass.)
    node.below_cache = child_below_cache;
    if (node.op == "cache") {
      for (const std::string& input : node.inputs) {
        NodeModel* child = const_cast<NodeModel*>(model.Find(input));
        if (child != nullptr) child->below_cache = true;
      }
    }

    // Cardinality ni (App. A): sources get total-bytes x records/byte;
    // infinite repeats poison; other nodes scale the child count by
    // their measured local input/output ratio.
    if (node.op == "file_list") {
      auto fp = trace.files_per_prefix.find(def->GetString(kAttrPrefix));
      node.cardinality = fp != trace.files_per_prefix.end()
                             ? static_cast<double>(fp->second)
                             : kModelUnknown;
    } else if (node.is_source) {
      if (node.bytes_read > 0 && node.completions > 0) {
        const double records_per_byte =
            static_cast<double>(node.completions) / node.bytes_read;
        double total_bytes = 0;
        for (const auto& [prefix, est] : source_sizes) {
          total_bytes += est.estimated_bytes;
        }
        node.cardinality = total_bytes * records_per_byte;
      }
    } else if (OpIsInfiniteRepeat(*def)) {
      node.cardinality = kModelInfinite;
    } else if (child_cardinality == kModelInfinite) {
      node.cardinality = kModelInfinite;
    } else if (child_cardinality >= 0) {
      // Measured input/output ratio relative to the (aggregate) child.
      double child_completions = 0;
      for (const std::string& input : node.inputs) {
        const NodeModel* child = model.Find(input);
        if (child != nullptr) child_completions += child->completions;
      }
      if (child_completions > 0) {
        const double io_ratio = node.completions / child_completions;
        node.cardinality = child_cardinality * io_ratio;
      }
    }

    if (node.cardinality >= 0 && node.bytes_per_element > 0) {
      node.materialized_bytes = node.cardinality * node.bytes_per_element;
    }

    node.cacheable = !node.random_tainted && node.cardinality >= 0 &&
                     node.op != "cache" && node.op != "prefetch" &&
                     node.op != "file_list" && !node.below_cache;
  }

  // Propagate below_cache transitively source-ward (a cache's whole
  // upstream subtree is free in steady state).
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& node : model.nodes_) {
      if (!node.below_cache) continue;
      for (const std::string& input : node.inputs) {
        NodeModel* child = const_cast<NodeModel*>(model.Find(input));
        if (child != nullptr && !child->below_cache) {
          child->below_cache = true;
          child->cacheable = false;
          changed = true;
        }
      }
    }
  }

  return model;
}

const NodeModel* PipelineModel::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &nodes_[it->second];
}

std::vector<std::string> PipelineModel::RankBottlenecks() const {
  struct Entry {
    double capacity;
    const NodeModel* node;
  };
  std::vector<Entry> entries;
  for (const auto& node : nodes_) {
    if (!node.parallelizable || node.negligible_cost || node.below_cache) {
      continue;
    }
    if (node.rate_per_core <= 0) continue;
    entries.push_back({node.rate_per_core * node.parallelism, &node});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.capacity < b.capacity;
            });
  std::vector<std::string> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e.node->name);
  return out;
}

std::vector<MaxMinStage> PipelineModel::LpStages() const {
  std::vector<MaxMinStage> stages;
  for (const auto& node : nodes_) {
    if (node.negligible_cost || node.below_cache) continue;
    if (node.rate_per_core <= 0) continue;
    MaxMinStage stage;
    stage.name = node.name;
    stage.rate_per_core = node.rate_per_core;
    stage.sequential = !node.parallelizable;
    stages.push_back(std::move(stage));
  }
  return stages;
}

double PipelineModel::DiskBytesPerMinibatch() const {
  double total = 0;
  for (const auto& node : nodes_) {
    if (!node.below_cache) total += node.disk_bytes_per_minibatch;
  }
  return total;
}

double PipelineModel::NetworkBytesPerMinibatch() const {
  double total = 0;
  for (const auto& node : nodes_) {
    if (!node.below_cache) total += node.network_bytes_per_minibatch;
  }
  return total;
}

std::map<std::string, PipelineModel::SourceSizeEstimate>
PipelineModel::EstimateSourceSizes() const {
  std::map<std::string, SourceSizeEstimate> out;
  for (const auto& [prefix, total_files] : trace_.files_per_prefix) {
    SourceSizeEstimate est;
    est.files_total = total_files;
    double sum = 0;
    for (const auto& [file, entry] : trace_.read_log) {
      if (file.compare(0, prefix.size(), prefix) != 0) continue;
      ++est.files_seen;
      sum += static_cast<double>(entry.file_size);
    }
    if (est.files_seen > 0) {
      est.estimated_bytes =
          sum / est.files_seen * static_cast<double>(est.files_total);
    }
    out.emplace(prefix, est);
  }
  return out;
}

}  // namespace plumber
