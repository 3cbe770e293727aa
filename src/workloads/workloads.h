// The five MLPerf-style evaluation workloads (paper §5 "Workloads"),
// rebuilt as synthetic pipelines over the scaled datasets:
//
//   resnet18 / resnet50  ImageNet classification: interleave -> parse ->
//                        decode(6x) -> [cache point] -> shuffle+repeat ->
//                        random crop -> transpose -> batch. resnet50
//                        differs only in its (lower) model consumption
//                        cap. A fused decode+crop variant (cheaper CPU,
//                        uncacheable past parse) backs pick_best (§B).
//   resnet_linear        linear model over the ImageNet validation set;
//                        small enough that decoded images fit in memory.
//   rcnn                 COCO detection: one heavy randomized UDF with
//                        internal parallelism ~3 (the §5.1 hazard) plus
//                        a much cheaper map.
//   multibox_ssd         COCO detection: decode(6x) -> filter(~99% keep)
//                        -> random augment; cacheable after the filter.
//   transformer / gnmt   WMT text: many tiny ops; framework overhead
//                        dominates, model cap binds end-to-end.
//   transformer_small    Flax-style on-the-fly tokenize/pack with a
//                        sequential (non-tunable) pack stage; caching is
//                        the only way past it.
#pragma once

#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/pipeline/graph_def.h"
#include "src/pipeline/udf.h"
#include "src/workloads/datagen.h"

namespace plumber {

struct Workload {
  std::string name;
  // Canonical program: minimal parallelism, prefetch hard-coded at the
  // root (the dataset authors' defaults, per §5.4 HEURISTIC setup).
  GraphDef graph;
  // Signature-equivalent variants for pick_best (empty if none);
  // variants[0] == graph.
  std::vector<GraphDef> variants;
  int batch_size = 32;
  // Model consumption cap for end-to-end runs (examples/sec on the
  // Setup C consumer); 0 = uncapped (microbenchmarks).
  double model_cap_examples_per_sec = 0;
  std::string dataset_prefix;
  // Storage device for Setup C end-to-end runs (cloud object store with
  // per-stream caps, scaled like the datasets). Microbenchmarks use an
  // unlimited device unless stated.
  DeviceSpec storage = DeviceSpec::Unlimited();

  // Seconds the consumer spends per batch at the model cap.
  double ModelStepSeconds() const {
    return model_cap_examples_per_sec > 0
               ? batch_size / model_cap_examples_per_sec
               : 0.0;
  }
};

// Registers every UDF used by the workloads (idempotent per registry).
Status RegisterWorkloadUdfs(UdfRegistry* udfs);

// Builds a workload by name: resnet18, resnet50, resnet_linear, rcnn,
// multibox_ssd, transformer, transformer_small, gnmt.
StatusOr<Workload> MakeWorkload(const std::string& name);

std::vector<std::string> AllWorkloadNames();

// One-call environment as a Session (the unified API): standard
// datasets + all workload UDFs, modeling `machine`; the overload with a
// DeviceSpec attaches an owned storage device to the filesystem.
Session MakeWorkloadSession(const MachineSpec& machine);
Session MakeWorkloadSession(const MachineSpec& machine,
                            const DeviceSpec& storage);

}  // namespace plumber
