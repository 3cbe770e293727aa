#include "src/workloads/workloads.h"

#include "src/pipeline/graph_builder.h"

namespace plumber {
namespace {

// CPU costs are the paper's measured magnitudes scaled by ~1/5 (the
// same wall-time compression the datasets get via kCountScale); ratios
// between stages — which drive every tuning decision — are preserved.
// e.g. "decode" is 600us/element vs. the paper's ~3.1ms/image on
// Setup A (2.5 minibatches/s/core at batch 128).
Status RegisterUdfsImpl(UdfRegistry* udfs) {
  auto add = [&](UdfSpec spec) { return udfs->Register(std::move(spec)); };

  // --- ResNet / ImageNet ---
  UdfSpec parse;
  parse.name = "parse";
  parse.cost_ns_per_element = 40e3;
  RETURN_IF_ERROR(add(parse));

  UdfSpec decode;
  decode.name = "decode";
  decode.cost_ns_per_element = 600e3;
  decode.size_ratio = 6.0;  // JPEG decompression amplification
  RETURN_IF_ERROR(add(decode));

  UdfSpec crop;
  crop.name = "crop_flip";
  crop.cost_ns_per_element = 60e3;
  crop.size_ratio = 0.5;
  crop.accesses_random_seed = true;  // random augmentation
  RETURN_IF_ERROR(add(crop));

  UdfSpec fused;
  fused.name = "fused_decode_crop";
  fused.cost_ns_per_element = 620e3;  // cheaper than decode + crop
  fused.size_ratio = 3.0;
  fused.calls = {"crop_flip"};  // transitively random (paper Fig. 11)
  RETURN_IF_ERROR(add(fused));

  UdfSpec transpose;
  transpose.name = "transpose";
  transpose.cost_ns_per_element = 150e3;  // the second bottleneck (§5.1)
  RETURN_IF_ERROR(add(transpose));

  // --- RCNN / COCO ---
  UdfSpec rcnn_rand;
  rcnn_rand.name = "rcnn_random_aug";
  rcnn_rand.accesses_random_seed = true;
  RETURN_IF_ERROR(add(rcnn_rand));

  UdfSpec rcnn_heavy;
  rcnn_heavy.name = "rcnn_heavy";
  rcnn_heavy.cost_ns_per_element = 2500e3;
  rcnn_heavy.size_ratio = 4.0;
  // One logical call transparently uses ~3 cores (§5.1 hazard).
  rcnn_heavy.internal_parallelism = 3;
  rcnn_heavy.calls = {"rcnn_random_aug"};
  RETURN_IF_ERROR(add(rcnn_heavy));

  UdfSpec rcnn_light;
  rcnn_light.name = "rcnn_light";
  rcnn_light.cost_ns_per_element = 60e3;  // ~2 orders cheaper
  RETURN_IF_ERROR(add(rcnn_light));

  // --- MultiBoxSSD / COCO ---
  UdfSpec ssd_decode;
  ssd_decode.name = "ssd_decode";
  ssd_decode.cost_ns_per_element = 220e3;
  ssd_decode.size_ratio = 6.0;
  RETURN_IF_ERROR(add(ssd_decode));

  UdfSpec ssd_filter;
  ssd_filter.name = "ssd_is_valid";
  ssd_filter.cost_ns_per_element = 3e3;
  ssd_filter.keep_fraction = 0.99;  // filter reduces the dataset <1% (§5.3)
  RETURN_IF_ERROR(add(ssd_filter));

  UdfSpec ssd_augment;
  ssd_augment.name = "ssd_augment";
  ssd_augment.cost_ns_per_element = 70e3;
  ssd_augment.size_ratio = 0.5;
  ssd_augment.accesses_random_seed = true;
  RETURN_IF_ERROR(add(ssd_augment));

  // --- Transformer / WMT ---
  UdfSpec tokenize;
  tokenize.name = "tokenize";
  tokenize.cost_ns_per_element = 4e3;
  tokenize.size_ratio = 1.2;
  RETURN_IF_ERROR(add(tokenize));

  UdfSpec pack;
  pack.name = "pack";
  pack.cost_ns_per_element = 3e3;
  RETURN_IF_ERROR(add(pack));

  UdfSpec len_filter;
  len_filter.name = "len_filter";
  len_filter.cost_ns_per_element = 2e3;
  len_filter.keep_fraction = 0.95;
  RETURN_IF_ERROR(add(len_filter));

  // --- TransformerSmall (Flax, on-the-fly processing) ---
  // The Flax pipeline tokenizes and packs on the fly (§5.4); the
  // tokenizer dominates and parallelizes, the packer is sequential, so
  // tuners gain ~3-4x from parallelism while only caching (which skips
  // both) reaches peak.
  UdfSpec flax_tokenize;
  flax_tokenize.name = "flax_tokenize";
  flax_tokenize.cost_ns_per_element = 120e3;
  flax_tokenize.size_ratio = 1.3;
  RETURN_IF_ERROR(add(flax_tokenize));

  UdfSpec flax_pack;
  flax_pack.name = "flax_pack";
  flax_pack.cost_ns_per_element = 30e3;
  RETURN_IF_ERROR(add(flax_pack));

  // --- GNMT / WMT ---
  UdfSpec gnmt_tokenize;
  gnmt_tokenize.name = "gnmt_tokenize";
  gnmt_tokenize.cost_ns_per_element = 5e3;
  gnmt_tokenize.size_ratio = 1.2;
  return add(gnmt_tokenize);
}

GraphDef ResNetGraph(const std::string& prefix, bool fused, int batch) {
  GraphBuilder b;
  auto n = b.FileList("files", prefix);
  n = b.Interleave("interleave", n, /*cycle_length=*/8, /*parallelism=*/1);
  n = b.Map("parse", n, "parse");
  if (fused) {
    n = b.Map("fused_decode_crop", n, "fused_decode_crop");
  } else {
    n = b.Map("decode", n, "decode");
  }
  n = b.ShuffleAndRepeat("shuffle_repeat", n, /*buffer_size=*/256);
  if (!fused) n = b.Map("crop", n, "crop_flip");
  n = b.Map("transpose", n, "transpose");
  n = b.Batch("batch", n, batch);
  n = b.Prefetch("prefetch", n, 4);
  auto graph_or = b.Build(n);
  return std::move(graph_or).value();
}

GraphDef RcnnGraph(int batch) {
  GraphBuilder b;
  auto n = b.FileList("files", "coco/train-");
  n = b.Interleave("interleave", n, 8, 1);
  n = b.Map("heavy_udf", n, "rcnn_heavy");
  n = b.Map("light_udf", n, "rcnn_light");
  n = b.ShuffleAndRepeat("shuffle_repeat", n, 128);
  n = b.Batch("batch", n, batch);
  n = b.Prefetch("prefetch", n, 4);
  return std::move(b.Build(n)).value();
}

GraphDef SsdGraph(int batch) {
  GraphBuilder b;
  auto n = b.FileList("files", "coco/train-");
  n = b.Interleave("interleave", n, 8, 1);
  n = b.Map("decode", n, "ssd_decode");
  n = b.Filter("filter", n, "ssd_is_valid");
  n = b.ShuffleAndRepeat("shuffle_repeat", n, 256);
  n = b.Map("augment", n, "ssd_augment");
  n = b.Batch("batch", n, batch);
  n = b.Prefetch("prefetch", n, 4);
  return std::move(b.Build(n)).value();
}

GraphDef TransformerGraph(int batch) {
  GraphBuilder b;
  auto n = b.FileList("files", "wmt17/train-");
  n = b.Interleave("interleave", n, 4, 1);
  n = b.Map("tokenize", n, "tokenize");
  n = b.Map("pack", n, "pack");
  n = b.Filter("length_filter", n, "len_filter");
  n = b.ShuffleAndRepeat("shuffle_repeat", n, 1024);
  n = b.Batch("batch", n, batch);
  n = b.Prefetch("prefetch", n, 4);
  return std::move(b.Build(n)).value();
}

GraphDef TransformerSmallGraph(int batch) {
  GraphBuilder b;
  auto n = b.FileList("files", "wmt17/train-");
  n = b.Interleave("interleave", n, 4, 1);
  n = b.Map("flax_tokenize", n, "flax_tokenize");
  // Flax's packing is sequential: no parallelism knob exists, so the
  // only way past it is materializing its output.
  n = b.SequentialMap("flax_pack", n, "flax_pack");
  n = b.ShuffleAndRepeat("shuffle_repeat", n, 1024);
  n = b.Batch("batch", n, batch);
  n = b.Prefetch("prefetch", n, 4);
  return std::move(b.Build(n)).value();
}

GraphDef GnmtGraph(int batch) {
  GraphBuilder b;
  auto n = b.FileList("files", "wmt16/train-");
  n = b.Interleave("interleave", n, 4, 1);
  n = b.Map("tokenize", n, "gnmt_tokenize");
  n = b.ShuffleAndRepeat("shuffle_repeat", n, 4096);
  n = b.Batch("batch", n, batch);
  n = b.Prefetch("prefetch", n, 4);
  return std::move(b.Build(n)).value();
}

}  // namespace

Status RegisterWorkloadUdfs(UdfRegistry* udfs) {
  if (udfs->Find("parse") != nullptr) return OkStatus();  // already done
  return RegisterUdfsImpl(udfs);
}

StatusOr<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "resnet18" || name == "resnet50") {
    w.batch_size = 32;
    w.dataset_prefix = "imagenet/train-";
    w.graph = ResNetGraph(w.dataset_prefix, /*fused=*/false, w.batch_size);
    w.variants = {w.graph,
                  ResNetGraph(w.dataset_prefix, /*fused=*/true, w.batch_size)};
    // resnet50's heavier model consumes fewer examples/sec (the paper's
    // 8k images/s TPU bound, scaled): every tuner saturates it, so the
    // cap sits below the cloud-storage I/O bound and all tuners tie.
    w.model_cap_examples_per_sec = name == "resnet18" ? 48000 : 8600;
    // Cloud object store whose aggregate bandwidth bounds the uncached
    // pipeline below its CPU peak (the paper's 11k images/s source
    // bottleneck vs 14k images/s cached): ~10MB/s over ~35KB minibatches
    // is ~285 minibatches/s, under the ~380 mb/s CPU peak.
    w.storage = DeviceSpec::CloudStorage(10e6, 2.5e6);
  } else if (name == "resnet_linear") {
    w.batch_size = 32;
    w.dataset_prefix = "imagenet/valid-";
    w.graph = ResNetGraph(w.dataset_prefix, /*fused=*/false, w.batch_size);
    w.variants = {w.graph,
                  ResNetGraph(w.dataset_prefix, /*fused=*/true, w.batch_size)};
    w.model_cap_examples_per_sec = 60000;
    w.storage = DeviceSpec::CloudStorage(10e6, 2.5e6);
  } else if (name == "rcnn") {
    w.batch_size = 32;
    w.dataset_prefix = "coco/train-";
    w.graph = RcnnGraph(w.batch_size);
    w.model_cap_examples_per_sec = 12000;
    w.storage = DeviceSpec::CloudStorage(60e6, 6e6);
  } else if (name == "multibox_ssd") {
    w.batch_size = 32;
    w.dataset_prefix = "coco/train-";
    w.graph = SsdGraph(w.batch_size);
    w.model_cap_examples_per_sec = 30000;
    w.storage = DeviceSpec::CloudStorage(60e6, 6e6);
  } else if (name == "transformer") {
    w.batch_size = 128;
    w.dataset_prefix = "wmt17/train-";
    w.graph = TransformerGraph(w.batch_size);
    // The full Transformer model is slow enough that even the naive
    // pipeline outpaces it (paper Fig. 12: 859-860 mb/s for all four
    // tuners) — every configuration ties at the model cap.
    w.model_cap_examples_per_sec = 9000;
    w.storage = DeviceSpec::CloudStorage(30e6, 5e6);
  } else if (name == "transformer_small") {
    w.batch_size = 128;
    w.dataset_prefix = "wmt17/train-";
    w.graph = TransformerSmallGraph(w.batch_size);
    w.model_cap_examples_per_sec = 90000;
    w.storage = DeviceSpec::CloudStorage(30e6, 5e6);
  } else if (name == "gnmt") {
    w.batch_size = 128;
    w.dataset_prefix = "wmt16/train-";
    w.graph = GnmtGraph(w.batch_size);
    // Like Transformer: model-bound regardless of tuner (paper Fig. 12:
    // 5598-5606 mb/s across all four configurations).
    w.model_cap_examples_per_sec = 10500;
    w.storage = DeviceSpec::CloudStorage(30e6, 5e6);
  } else {
    return NotFoundError("unknown workload: " + name);
  }
  if (w.variants.empty()) w.variants = {w.graph};
  return w;
}

std::vector<std::string> AllWorkloadNames() {
  return {"resnet18",    "resnet50",          "resnet_linear",
          "rcnn",        "multibox_ssd",      "transformer",
          "transformer_small", "gnmt"};
}

Session MakeWorkloadSession(const MachineSpec& machine) {
  SessionOptions options;
  options.machine = machine;
  Session session(std::move(options));
  Status status = RegisterStandardDatasets(&session.fs());
  (void)status;
  status = RegisterWorkloadUdfs(&session.udfs());
  (void)status;
  return session;
}

Session MakeWorkloadSession(const MachineSpec& machine,
                            const DeviceSpec& storage) {
  Session session = MakeWorkloadSession(machine);
  session.AttachStorage(storage);
  return session;
}

}  // namespace plumber
