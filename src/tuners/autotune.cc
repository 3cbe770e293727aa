#include "src/tuners/autotune.h"

#include <algorithm>
#include <cmath>

#include "src/core/rewriter.h"
#include "src/pipeline/ops.h"
#include "src/queueing/mm1k.h"

namespace plumber {
namespace {

// Assumed producer/consumer rate ratio for the M/M/1/k overlap term.
constexpr double kAssumedRho = 0.95;
// Hill climbing stops when the relative latency improvement of the
// best single move falls below this plateau threshold.
constexpr double kPlateauThreshold = 1e-3;
constexpr int kMaxIterations = 512;

int KnobParallelism(const std::map<std::string, int>& parallelism,
                    const NodeModel& node) {
  auto it = parallelism.find(node.name);
  if (it != parallelism.end()) return std::max(1, it->second);
  return std::max(1, node.parallelism);
}

}  // namespace

double AutotuneEstimateLatency(const PipelineModel& model,
                               const std::map<std::string, int>& parallelism) {
  // Output latency = sum over nodes of (service time per element x
  // elements per minibatch / parallelism), where any node strictly
  // below an async boundary contributes only the M/M/1/k-empty
  // fraction of its latency (the buffer hides the rest). Crucially, no
  // term accounts for the shared CPU: parallelism divides latency
  // without bound.
  double latency = 0;
  for (const auto& node : model.nodes()) {
    if (node.completions == 0) continue;
    const int p = KnobParallelism(parallelism, node);
    double term = node.service_seconds * node.visit_ratio / p;
    // Count async boundaries on the path from this node to the root;
    // each boundary's buffer hides a further fraction of the latency.
    const NodeModel* current = &node;
    int guard = 0;
    while (current != nullptr && ++guard < 64) {
      const auto consumers = model.trace().graph.Consumers(current->name);
      if (consumers.empty()) break;
      const NodeModel* parent = model.Find(consumers[0]);
      if (parent == nullptr) break;
      const NodeDef* parent_def = model.trace().graph.FindNode(parent->name);
      if (parent->op == "prefetch") {
        const int k = std::max<int64_t>(
            1, parent_def->GetInt(kAttrBufferSize, 2));
        term = Mm1kOverlappedLatency(term, kAssumedRho, k);
      } else if (parent->parallelizable &&
                 KnobParallelism(parallelism, *parent) > 1) {
        const int k = 2 * KnobParallelism(parallelism, *parent);
        term = Mm1kOverlappedLatency(term, kAssumedRho, k);
      }
      current = parent;
    }
    latency += term;
  }
  return latency;
}

double AutotuneEstimateRate(const PipelineModel& model) {
  const double latency = AutotuneEstimateLatency(model, {});
  return latency > 0 ? 1.0 / latency : 0.0;
}

StatusOr<AutotuneResult> AutotuneConfiguration(
    const GraphDef& graph, const PipelineModel& traced_model,
    const AutotuneOptions& options) {
  AutotuneResult result;
  result.graph = graph;
  // Start every knob at 1 and hill-climb: each iteration takes the
  // single +1 move that most reduces modeled latency, stopping at a
  // plateau or when all knobs hit the per-knob cap.
  for (const std::string& node : rewriter::TunableNodes(graph)) {
    result.parallelism[node] = 1;
  }
  double latency = AutotuneEstimateLatency(traced_model, result.parallelism);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    std::string best_knob;
    double best_latency = latency;
    for (auto& [knob, value] : result.parallelism) {
      if (value >= options.max_parallelism) continue;
      ++value;
      const double candidate =
          AutotuneEstimateLatency(traced_model, result.parallelism);
      --value;
      if (candidate < best_latency) {
        best_latency = candidate;
        best_knob = knob;
      }
    }
    if (best_knob.empty() ||
        (latency - best_latency) < kPlateauThreshold * latency) {
      break;
    }
    ++result.parallelism[best_knob];
    latency = best_latency;
  }
  result.predicted_latency_seconds = latency;
  result.predicted_rate = latency > 0 ? 1.0 / latency : 0.0;
  for (const auto& [knob, value] : result.parallelism) {
    RETURN_IF_ERROR(rewriter::SetParallelism(&result.graph, knob, value));
  }
  RETURN_IF_ERROR(rewriter::EnsureRootPrefetch(&result.graph, 8));
  return result;
}

}  // namespace plumber
