// perfbench: the repository's one benchmark, end to end and per layer.
//
//   perfbench --workload ingest_text|tune_vision|serve_mixed --seed N
//             --seconds S --trace 0|1 [--trace-out trace.json]
//
// Each run builds its inputs from the seed and sets the workload up
// several times, measuring an equal share of S seconds after each set-up
// (set-up time is reported as the median). It checks the program's
// outputs and prints one JSON object as the last line of stdout:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with
// --trace 1 the run records spans around every call into the library
// (spans.h), adds the layer probes, reports the per-layer metrics and
// writes the spans as Chrome trace-event JSON. A failed correctness
// check makes the exit code 1. GLOSSARY.md defines every workload and
// metric; the benchmark only calls public functions of src/.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spans.h"
#include "src/api/fleet_session.h"
#include "src/api/session.h"
#include "src/core/model.h"
#include "src/core/multi_job_planner.h"
#include "src/core/planner.h"
#include "src/fleet/arrival_trace.h"
#include "src/fleet/trace_replay.h"
#include "src/pipeline/graph_builder.h"
#include "src/pipeline/ops.h"
#include "src/util/buffer_pool.h"
#include "src/util/cpu_timer.h"
#include "src/util/rng.h"
#include "src/workloads/datagen.h"
#include "src/workloads/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace plumber;
using perfbench::Span;
using perfbench::SpanLog;

namespace {

// Set-ups per run; set-up time is their median.
constexpr int kSetups = 3;
// serve_mixed sets its fleet up more often: one replay's latency
// percentiles can move several-fold with the host's scheduling, so the
// run reports the median over more, shorter replays.
constexpr int kServeSetups = 7;
// Consumer p99 latency is taken per chunk of this length: long enough
// that more than ten GetNext calls lie beyond each chunk's p99.
constexpr double kChunkSeconds = 2.0;
// Fresh pipelines timed for pipeline.create_ms / first_element_ms.
constexpr int kCreateProbes = 5;
// Jobs cancelled for pipeline.cancel_ms.
constexpr int kCancelProbes = 5;
// Repetitions of the planner calls timed by the layer probe.
constexpr int kPlannerRepeats = 200;

// ------------------------------------------------------------ metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported with --trace 0. Every workload reports every one of them.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"elements_per_s", "1/s"},
    {"optimize_s", "s"},       {"latency_p50_s", "s"},
    {"latency_p99_s", "s"},    {"peak_rss_mb", "MB"},
};

// Reported with --trace 1; a layer a workload does not exercise reads 0.
const MetricDef kPerLayer[] = {
    {"api.submit_us", "us"},
    {"api.self_s", "s"},
    {"pipeline.create_ms", "ms"},
    {"pipeline.first_element_ms", "ms"},
    {"pipeline.next_p50_ns", "ns"},
    {"pipeline.next_p99_ns", "ns"},
    {"pipeline.cpu_ns_per_elem.interleave", "ns"},
    {"pipeline.cpu_ns_per_elem.tokenize", "ns"},
    {"pipeline.cpu_ns_per_elem.pack", "ns"},
    {"pipeline.cpu_ns_per_elem.length_filter", "ns"},
    {"pipeline.cpu_ns_per_elem.shuffle_repeat", "ns"},
    {"pipeline.cpu_ns_per_elem.batch", "ns"},
    {"pipeline.cpu_ns_per_elem.prefetch", "ns"},
    {"pipeline.empty_pop_frac.prefetch", "frac"},
    {"pipeline.overhead_ns_per_elem", "ns"},
    {"pipeline.tracing_tax_rel", "ratio"},
    {"pipeline.sequential_elements_per_s", "1/s"},
    {"pipeline.cancel_ms", "ms"},
    {"pipeline.self_s", "s"},
    {"util.buffer_pool_hit_frac", "frac"},
    {"util.buffer_pool_drop_frac", "frac"},
    {"core.trace_s", "s"},
    {"core.model_build_ms", "ms"},
    {"core.lp_solve_us", "us"},
    {"core.traces_per_optimize_count", "count"},
    {"core.predicted_over_measured_rel", "ratio"},
    {"core.multi_job_plan_us", "us"},
    {"core.self_s", "s"},
    {"io.storage_bytes_per_elem", "B"},
    {"io.storage_util_frac", "frac"},
    {"runtime.exec_queue_p50_ms", "ms"},
    {"runtime.exec_queue_p99_ms", "ms"},
    {"runtime.run_p50_ms", "ms"},
    {"fleet.fleet_queue_p50_ms", "ms"},
    {"fleet.fleet_queue_p99_ms", "ms"},
    {"fleet.steal_count", "count"},
    {"fleet.host_util_frac", "frac"},
    {"fleet.interactive_p95_s", "s"},
    {"fleet.goodput_jobs_per_s", "1/s"},
    {"fleet.self_s", "s"},
    {"workloads.self_s", "s"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.span_overhead_rel", "ratio"},
    {"bench.self_s", "s"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// The outcome of one run: the JSON fields plus every metric value.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;

  void Set(const std::string& name, double value) {
    values[name] = std::isfinite(value) ? value : 0.0;
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  // Counts one attempted operation and whether it failed.
  void Count(const Status& status, const std::string& what) {
    ++attempted;
    if (status.ok()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
  }
};

double Percentile(std::vector<double> values, double p) {
  return fleet::LatencyPercentile(std::move(values), p);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double SecondsSince(int64_t start_ns) { return (WallNanos() - start_ns) * 1e-9; }

// Measured seconds of a run: traced runs halve the window and spend the
// rest on the layer probe.
double MeasuredSeconds(const Args& args) {
  return args.trace ? args.seconds / 2 : args.seconds;
}

// Returns freed heap to the system between set-ups, so peak_rss_mb is
// one set-up's peak rather than the allocator's accumulated free lists.
void TrimHeap() { malloc_trim(0); }

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out + "\"";
}

// The host class every result is stamped with.
std::string HostStampJson() {
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  return "{\"nproc\":" + std::to_string(Nproc()) +
         ",\"cpu_model\":" + JsonString(CpuModel()) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"git_commit\":" +
         JsonString(commit != nullptr && *commit != '\0' ? commit : "unknown") +
         "}";
}

// ------------------------------------------------------- environment

// The modeled machine of ingest_text and tune_vision: Setup C's memory
// (scaled like the datasets) with this host's core count.
MachineSpec BenchMachine() {
  MachineSpec machine = MachineSpec::SetupC(kMemoryScale);
  machine.num_cores = Nproc();
  return machine;
}

// A Session over the standard datasets generated from `seed`, with
// every workload UDF registered and optionally a storage device.
std::unique_ptr<Session> MakeEnv(uint64_t seed, const DeviceSpec* storage,
                                 Report& report) {
  SessionOptions options;
  options.machine = BenchMachine();
  options.seed = seed;
  auto env = std::make_unique<Session>(std::move(options));
  {
    Span span("workloads", "RegisterStandardDatasets");
    report.Check(RegisterStandardDatasets(&env->fs(), seed).ok(),
                 "RegisterStandardDatasets");
  }
  report.Check(RegisterWorkloadUdfs(&env->udfs()).ok(),
               "RegisterWorkloadUdfs");
  if (storage != nullptr) env->AttachStorage(*storage);
  return env;
}

// The same program with every parallelism knob at 1 and no prefetch:
// one thread, the reference for identity and for sequential speed.
GraphDef SequentialReference(GraphDef graph) {
  for (NodeDef& node : graph.mutable_nodes()) {
    if (node.HasAttr(kAttrParallelism)) {
      node.attrs[kAttrParallelism] = AttrValue(1);
    }
  }
  std::vector<std::string> prefetches;
  for (const NodeDef& node : graph.nodes()) {
    if (node.op == "prefetch") prefetches.push_back(node.name);
  }
  for (const std::string& name : prefetches) (void)graph.RemoveNode(name);
  return graph;
}

// Order-independent digest of the element components seen.
struct Digest {
  uint64_t sum = 0;
  int64_t count = 0;

  void Add(const Element& batch) {
    for (const Buffer& component : batch.components) {
      uint64_t h = 1469598103934665603ULL;  // FNV-1a
      for (uint8_t byte : component) h = (h ^ byte) * 1099511628211ULL;
      sum += SplitMix64(h ^ component.size());
      ++count;
    }
  }
  bool operator==(const Digest& other) const {
    return sum == other.sum && count == other.count;
  }
};

// One instantiated program: the pipeline and its root iterator.
class Running {
 public:
  Running() = default;
  ~Running() {
    if (pipeline_ != nullptr) pipeline_->Cancel();
    iterator_.reset();  // joins the iterator tree's threads first
    pipeline_.reset();
  }
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;

  // Pipeline::Create + MakeIterator, then the first element. Times
  // both when the pointers are given.
  Status Open(const GraphDef& graph, const PipelineOptions& options,
              double* create_ms = nullptr, double* first_ms = nullptr) {
    const int64_t t0 = WallNanos();
    {
      Span span("pipeline", "Pipeline::Create");
      auto pipeline = Pipeline::Create(graph, options);
      if (!pipeline.ok()) return pipeline.status();
      pipeline_ = std::move(pipeline).value();
    }
    {
      Span span("pipeline", "Pipeline::MakeIterator");
      auto iterator = pipeline_->MakeIterator();
      if (!iterator.ok()) return iterator.status();
      iterator_ = std::move(iterator).value();
    }
    const int64_t t1 = WallNanos();
    Element first;
    bool end = false;
    Status status;
    {
      Span span("pipeline", "IteratorBase::GetNext (first)");
      status = iterator_->GetNext(&first, &end);
    }
    if (create_ms != nullptr) *create_ms = (t1 - t0) * 1e-6;
    if (first_ms != nullptr) *first_ms = (WallNanos() - t1) * 1e-6;
    if (status.ok() && end) status = OutOfRangeError("program produced nothing");
    return status;
  }

  Pipeline* pipeline() const { return pipeline_.get(); }
  IteratorBase* iterator() const { return iterator_.get(); }

 private:
  std::unique_ptr<Pipeline> pipeline_;
  std::unique_ptr<IteratorBase> iterator_;
};

// What a consumer saw while pulling batches.
struct Window {
  Status status;
  int64_t batches = 0;
  int64_t elements = 0;
  uint64_t bytes = 0;
  double seconds = 0;
  std::vector<double> next_ns;       // every root GetNext
  std::vector<double> chunk_p99_ns;  // p99 GetNext per kChunkSeconds chunk

  // Pools another window's samples into this one.
  void Append(const Window& other) {
    if (!other.status.ok()) status = other.status;
    batches += other.batches;
    elements += other.elements;
    bytes += other.bytes;
    seconds += other.seconds;
    next_ns.insert(next_ns.end(), other.next_ns.begin(), other.next_ns.end());
    chunk_p99_ns.insert(chunk_p99_ns.end(), other.chunk_p99_ns.begin(),
                        other.chunk_p99_ns.end());
  }

  // Elements over the whole window's seconds.
  double ElementsPerSecond() const {
    return seconds > 0 ? elements / seconds : 0;
  }

  // The median chunk's p99 (the window's p99 when it has no chunk): a
  // few seconds in which the machine stalls the consumer move one
  // chunk's tail, not the run's figure.
  double P99Ns() const {
    return chunk_p99_ns.empty() ? Percentile(next_ns, 0.99)
                                : Median(chunk_p99_ns);
  }
};

// Closed loop: one consumer pulls batches until `seconds` pass or
// `max_batches` (> 0) were taken, timing each root GetNext.
Window Drive(IteratorBase* iterator, double seconds, int64_t max_batches = 0,
             Digest* digest = nullptr) {
  Window w;
  Element batch;
  const int64_t start = WallNanos();
  const int64_t deadline =
      seconds > 0 ? start + static_cast<int64_t>(seconds * 1e9) : INT64_MAX;
  int64_t now = start;
  int64_t chunk_start = start;
  size_t chunk_first = 0;  // index into next_ns
  while (now < deadline && (max_batches <= 0 || w.batches < max_batches)) {
    bool end = false;
    const int64_t t0 = WallNanos();
    {
      Span span("pipeline", "IteratorBase::GetNext");
      w.status = iterator->GetNext(&batch, &end);
    }
    now = WallNanos();
    if (w.status.ok() && end) {
      w.status = OutOfRangeError("program ended early");
    }
    if (!w.status.ok()) break;
    w.next_ns.push_back(static_cast<double>(now - t0));
    ++w.batches;
    w.elements += static_cast<int64_t>(batch.components.size());
    w.bytes += batch.TotalBytes();
    if (digest != nullptr) digest->Add(batch);
    if (now - chunk_start >= static_cast<int64_t>(kChunkSeconds * 1e9)) {
      w.chunk_p99_ns.push_back(Percentile(
          std::vector<double>(w.next_ns.begin() + chunk_first, w.next_ns.end()),
          0.99));
      chunk_start = now;
      chunk_first = w.next_ns.size();
    }
  }
  w.seconds = (now - start) * 1e-9;
  return w;
}

// Flow::Optimize with the default schedule; returns its wall seconds.
double TimedOptimize(Session& env, const GraphDef& program, Report& report,
                     std::vector<double>* traces_per_optimize,
                     std::optional<OptimizedFlow>* out = nullptr) {
  OptimizeOptions options;
  if (env.storage() != nullptr) {
    options.lp_options.disk_bandwidth = env.storage()->spec().max_bandwidth;
  }
  const int64_t t0 = WallNanos();
  auto optimized = [&] {
    Span span("api", "Flow::Optimize");
    return env.FromGraph(program).Optimize(options);
  }();
  const double seconds = SecondsSince(t0);
  report.Count(optimized.status(), "Flow::Optimize");
  if (!optimized.ok()) {
    report.Check(false, "Flow::Optimize returned " +
                            optimized.status().ToString());
    return seconds;
  }
  int traced = 0;
  for (const PassReport& pass : optimized->pass_reports) {
    if (pass.traced_rate > 0) ++traced;
  }
  traces_per_optimize->push_back(traced);
  if (out != nullptr) *out = std::move(optimized).value();
  return seconds;
}

// End-to-end metrics shared by every workload.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> optimize_s;
  double elements_per_s = 0;
  double latency_p50_s = 0;
  double latency_p99_s = 0;

  void Store(Report& report) const {
    report.Set("setup_s", Median(setup_s));
    report.Set("optimize_s", Median(optimize_s));
    report.Set("elements_per_s", elements_per_s);
    report.Set("latency_p50_s", latency_p50_s);
    report.Set("latency_p99_s", latency_p99_s);
    report.Set("peak_rss_mb", PeakRssMb());
  }
};

// -------------------------------------------------------- layer probe

// Per-layer measurements of a workload's consumer program, taken
// outside the end-to-end window: creation and first element, a traced
// and an untraced consumer window, the engine with tracing disabled,
// the single-thread reference, the tracer/model/LP calls, and cancel.
void ProbeLayers(Session& env, const GraphDef& program, int64_t warm_batches,
                 double seconds, Report& report) {
  const PipelineOptions options = env.MakePipelineOptions();
  const double window_s = std::max(1.0, seconds / 4);

  std::vector<double> create_ms, first_ms;
  for (int i = 0; i < kCreateProbes; ++i) {
    Running run;
    double c = 0, f = 0;
    report.Count(run.Open(program, options, &c, &f), "probe Open");
    create_ms.push_back(c);
    first_ms.push_back(f);
  }
  report.Set("pipeline.create_ms", Median(create_ms));
  report.Set("pipeline.first_element_ms", Median(first_ms));

  // Window A (spans on) and B (spans off) on one warm iterator.
  double traced_rate = 0, untraced_rate = 0;
  {
    // Storage is read while the program warms up; on tune_vision that
    // is when the injected cache materializes (it serves afterwards).
    const uint64_t storage0 =
        env.storage() != nullptr ? env.storage()->total_bytes_read() : 0;
    const int64_t warm_start = WallNanos();
    Running run;
    report.Count(run.Open(program, options), "probe Open");
    if (run.iterator() == nullptr) return;
    const Window warm = Drive(run.iterator(), 0, warm_batches);
    const double warm_s = SecondsSince(warm_start);
    double warm_bytes = 0;
    for (const IteratorStatsSnapshot& node :
         run.pipeline()->stats().Snapshot()) {
      warm_bytes += node.bytes_read;
    }
    report.Set("io.storage_bytes_per_elem",
               warm_bytes / std::max<int64_t>(1, warm.elements));
    if (env.storage() != nullptr && env.storage()->spec().max_bandwidth > 0) {
      report.Set("io.storage_util_frac",
                 (env.storage()->total_bytes_read() - storage0) / warm_s /
                     env.storage()->spec().max_bandwidth);
    }

    run.pipeline()->stats().ResetAll();
    const BufferPool::Stats pool0 = BufferPool::Get()->GetStats();
    const Window a = Drive(run.iterator(), window_s);
    const std::vector<IteratorStatsSnapshot> nodes =
        run.pipeline()->stats().Snapshot();
    const BufferPool::Stats pool1 = BufferPool::Get()->GetStats();
    report.Count(a.status, "probe window");
    traced_rate = a.ElementsPerSecond();

    report.Set("pipeline.next_p50_ns", Percentile(a.next_ns, 0.50));
    report.Set("pipeline.next_p99_ns", Percentile(a.next_ns, 0.99));
    // The ledger: each node's CPU per element delivered to the consumer.
    const double elements = std::max<int64_t>(1, a.elements);
    double cpu_ns = 0, udf_ns = 0;
    for (const IteratorStatsSnapshot& node : nodes) {
      const std::string per_elem = "pipeline.cpu_ns_per_elem." + node.name;
      if (report.values.count(per_elem) > 0) {
        report.Set(per_elem, node.cpu_ns / elements);
      }
      if (node.name == "prefetch") {
        report.Set("pipeline.empty_pop_frac.prefetch",
                   node.queue_empty_fraction);
      }
      cpu_ns += node.cpu_ns;
      if (const UdfSpec* udf = env.udfs().Find(node.udf_name)) {
        // Filters evaluate every consumed element; maps produce one
        // element per call.
        const double calls = std::max(node.elements_consumed,
                                      node.elements_produced);
        udf_ns += calls * udf->cost_ns_per_element * options.cpu_scale;
      }
    }
    report.Set("pipeline.overhead_ns_per_elem", (cpu_ns - udf_ns) / elements);
    const double acquires = pool1.acquires - pool0.acquires;
    const double releases = pool1.releases - pool0.releases;
    report.Set("util.buffer_pool_hit_frac",
               acquires > 0 ? (pool1.acquire_hits - pool0.acquire_hits) /
                                  acquires
                            : 0);
    report.Set("util.buffer_pool_drop_frac",
               releases > 0 ? (pool1.release_drops - pool0.release_drops) /
                                  releases
                            : 0);

    const bool spans = SpanLog::Get().enabled();
    SpanLog::Get().set_enabled(false);
    const Window b = Drive(run.iterator(), window_s);
    SpanLog::Get().set_enabled(spans);
    report.Count(b.status, "probe window");
    untraced_rate = b.ElementsPerSecond();
    report.Set("bench.span_overhead_rel",
               traced_rate > 0 ? untraced_rate / traced_rate : 0);
  }
  {
    PipelineOptions untraced = options;
    untraced.tracing_enabled = false;
    Running run;
    report.Count(run.Open(program, untraced), "probe Open");
    if (run.iterator() != nullptr) {
      Drive(run.iterator(), 0, warm_batches);
      const Window c = Drive(run.iterator(), window_s);
      report.Count(c.status, "probe window");
      report.Set("pipeline.tracing_tax_rel",
                 untraced_rate > 0 ? c.ElementsPerSecond() / untraced_rate
                                   : 0);
    }
  }
  {
    Running run;
    report.Count(run.Open(SequentialReference(program), options),
                 "probe Open");
    if (run.iterator() != nullptr) {
      Drive(run.iterator(), 0, warm_batches);
      const Window d = Drive(run.iterator(), window_s);
      report.Count(d.status, "probe window");
      report.Set("pipeline.sequential_elements_per_s", d.ElementsPerSecond());
    }
  }

  // core: one trace, one model build, repeated LP solves.
  const Flow flow = env.FromGraph(program);
  int64_t t0 = WallNanos();
  auto trace = [&] {
    Span span("core", "Flow::Trace");
    return flow.Trace(0.3);
  }();
  report.Set("core.trace_s", SecondsSince(t0));
  report.Count(trace.status(), "Flow::Trace");
  if (trace.ok()) {
    t0 = WallNanos();
    auto model = [&] {
      Span span("core", "PipelineModel::Build");
      return PipelineModel::Build(*trace, &env.udfs());
    }();
    report.Set("core.model_build_ms", (WallNanos() - t0) * 1e-6);
    report.Count(model.status(), "PipelineModel::Build");
    if (model.ok()) {
      std::vector<double> solve_us;
      for (int i = 0; i < kPlannerRepeats; ++i) {
        t0 = WallNanos();
        Span span("core", "PlanAllocation");
        const LpPlan plan = PlanAllocation(*model);
        solve_us.push_back((WallNanos() - t0) * 1e-3);
        (void)plan;
      }
      report.Set("core.lp_solve_us", Median(solve_us));
    }
  }

  // pipeline.cancel_ms: a running multi-worker job, Cancel until Wait
  // returns; the same jobs time Session::Submit and executor admission.
  std::vector<double> cancel_ms, submit_us, queue_ms, run_ms;
  for (int i = 0; i < kCancelProbes; ++i) {
    JobOptions job;
    job.run.max_seconds = 60;
    t0 = WallNanos();
    JobHandle handle = [&] {
      Span span("api", "Session::Submit");
      return env.Submit(flow, job);
    }();
    submit_us.push_back((WallNanos() - t0) * 1e-3);
    const int64_t give_up = WallNanos() + 5'000'000'000LL;
    while (handle.Progress().batches < 1 && WallNanos() < give_up &&
           handle.phase() != JobPhase::kFailed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    t0 = WallNanos();
    {
      Span span("api", "JobHandle::Cancel");
      handle.Cancel();
    }
    auto result = [&] {
      Span span("wait", "JobHandle::Wait");
      return handle.Wait();
    }();
    cancel_ms.push_back((WallNanos() - t0) * 1e-6);
    report.Count(result.status(), "cancelled job");
    report.Check(result.ok() && handle.phase() == JobPhase::kCancelled,
                 "cancelled job ends as cancelled");
    if (result.ok()) {
      queue_ms.push_back(result->queue_seconds * 1e3);
      run_ms.push_back(result->wall_seconds * 1e3);
    }
  }
  report.Set("pipeline.cancel_ms", Median(cancel_ms));
  report.Set("api.submit_us", Median(submit_us));
  report.Set("runtime.exec_queue_p50_ms", Percentile(queue_ms, 0.50));
  report.Set("runtime.exec_queue_p99_ms", Percentile(queue_ms, 0.99));
  report.Set("runtime.run_p50_ms", Median(run_ms));
}

// ------------------------------------------------------------ serving

// The two job classes of bench_network's streaming SLO scenario, as
// defined there. rpc: interactive, 8 elements of 200 us, with a 0.5 s
// deadline. bulk: batch, 16 elements of 1 ms, no deadline. Both run
// two workers.
std::vector<fleet::TraceJobClass> ServeClasses() {
  fleet::TraceJobClass rpc;
  rpc.name = "rpc";
  rpc.weight = 0.8;
  rpc.cost_ns = 2e5;
  rpc.parallelism = 2;
  rpc.mean_elements = 8;
  rpc.slo = SloClass::kInteractive;
  rpc.latency_target_s = 0.5;
  fleet::TraceJobClass bulk;
  bulk.name = "bulk";
  bulk.weight = 0.2;
  bulk.cost_ns = 1e6;
  bulk.parallelism = 2;
  bulk.mean_elements = 16;
  return {rpc, bulk};
}

// The fleet of the same scenario: two hosts of two modeled cores, with
// the fleet runtime's default dispatch.
constexpr int kServeHosts = 2;
constexpr int kServeHostCores = 2;
constexpr double kServeLoad = 0.7;  // offered share of modeled capacity
// Jobs a host runs at once: twice the runtime's default. Each job holds
// its slot through a chain of thread hand-offs (dispatch, start,
// workers, completion), so at this arrival rate a machine that delays
// wake-ups by a few milliseconds fills 2 slots, and latency would follow
// the machine's scheduling rather than the program. With 4, the modeled
// cores stay the shared resource.
constexpr int kServeHostJobs = 4;

// A job is good when it finished within its class's deadline; a class
// without one only has to finish.
bool WithinTarget(const fleet::TraceJobClass& job, double latency_s) {
  return job.latency_target_s <= 0 || latency_s <= job.latency_target_s;
}

std::string ServeUdf(const fleet::TraceJobClass& job) {
  return "serve_" + job.name;
}

// range(elements) -> map(class UDF, class parallelism).
GraphDef JobProgram(const fleet::TraceJobClass& job, int64_t elements) {
  GraphBuilder b;
  const std::string src = b.Range("src", elements);
  const std::string work = b.Map("work", src, ServeUdf(job), job.parallelism);
  return std::move(b.Build(work)).value();
}

// One fleet with its arrival trace and the program of every event.
struct ServeSetup {
  std::unique_ptr<FleetSession> fleet;
  fleet::ArrivalTrace trace;
  std::vector<GraphDef> programs;
};

// Builds the 2-host fleet, a Poisson trace of `window_s` seconds drawn
// from `seed`, and runs the warm-up jobs.
void SetUpServe(uint64_t seed, double window_s,
                const std::vector<fleet::TraceJobClass>& classes,
                ServeSetup& setup, Report& report) {
  MachineSpec host = MachineSpec::SetupC(kMemoryScale);
  host.name = "serve_host";
  host.num_cores = kServeHostCores;
  FleetSessionOptions options;
  options.hosts.assign(kServeHosts, host);
  options.seed = seed;
  options.fleet.host_concurrent_jobs = kServeHostJobs;
  setup.fleet = std::make_unique<FleetSession>(std::move(options));
  setup.fleet->env().machine() = host;
  double weight = 0, core_s = 0;
  for (const fleet::TraceJobClass& c : classes) {
    UdfSpec udf;
    udf.name = ServeUdf(c);
    udf.cost_ns_per_element = c.cost_ns;
    report.Check(setup.fleet->RegisterUdf(udf).ok(), "RegisterUdf");
    weight += c.weight;
    core_s += c.weight * c.mean_elements * c.cost_ns * 1e-9;
  }
  // Arrival rate for kServeLoad of the fleet's modeled core-seconds.
  const double rate = kServeLoad * kServeHosts * kServeHostCores /
                      (core_s / weight);
  fleet::PoissonTraceOptions poisson;
  poisson.seed = seed;
  poisson.num_jobs = std::max(1, static_cast<int>(std::lround(rate * window_s)));
  poisson.mean_interarrival_s = 1.0 / rate;
  {
    Span span("fleet", "MakePoissonTrace");
    setup.trace = fleet::MakePoissonTrace(classes, poisson);
  }
  setup.programs.clear();
  for (const fleet::ArrivalEvent& event : setup.trace.events) {
    setup.programs.push_back(
        JobProgram(setup.trace.classes[event.job_class], event.elements));
  }
  // Warm-up: one job of each class on each host.
  std::vector<fleet::FleetJobHandle> warm;
  for (int h = 0; h < kServeHosts; ++h) {
    for (const fleet::TraceJobClass& c : classes) {
      fleet::FleetJobOptions job;
      job.pinned_host = h;
      job.job.slo = c.slo;
      warm.push_back(setup.fleet->Submit(
          JobProgram(c, static_cast<int64_t>(c.mean_elements)), job));
    }
  }
  for (const fleet::FleetJobHandle& handle : warm) {
    report.Count(handle.Wait(), "warm-up job");
  }
}

// Samples pooled over the replays of every set-up, plus each replay's
// own latency p50 and p99.
struct ServeSamples {
  std::vector<double> interactive_s, exec_queue_ms, fleet_queue_ms, run_ms,
      lag_ms, submit_us;
  std::vector<double> replay_p50_s, replay_p99_s;
  int64_t good = 0, good_elements = 0, steals = 0, jobs = 0;
  double makespan_s = 0, busy_core_s = 0;
};

// Open loop: submits each job of the set-up's trace when it is due and
// times its latency from then, then waits every job out and checks it.
void ReplayServe(ServeSetup& setup, ServeSamples& samples, Report& report) {
  const fleet::ArrivalTrace& trace = setup.trace;
  const int64_t steals0 = setup.fleet->runtime().steal_count();
  std::vector<fleet::FleetJobHandle> handles;
  std::vector<int64_t> due_ns, lateness_ns;
  handles.reserve(trace.events.size());
  const int64_t start = WallNanos();
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const fleet::ArrivalEvent& event = trace.events[i];
    const fleet::TraceJobClass& job_class = trace.classes[event.job_class];
    const int64_t due = start + static_cast<int64_t>(event.arrival_s * 1e9);
    const int64_t wait = due - WallNanos();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    fleet::FleetJobOptions options;
    options.job.slo = job_class.slo;
    options.job.priority = job_class.priority;
    options.job.latency_target_s = job_class.latency_target_s;
    const int64_t submitted = WallNanos();
    {
      Span span("api", "FleetSession::Submit");
      handles.push_back(setup.fleet->Submit(setup.programs[i], options));
    }
    samples.submit_us.push_back((WallNanos() - submitted) * 1e-3);
    due_ns.push_back(due);
    lateness_ns.push_back(submitted - due);
  }

  int64_t end_ns = start;
  std::vector<double> latency_s;
  for (size_t i = 0; i < handles.size(); ++i) {
    const fleet::ArrivalEvent& event = trace.events[i];
    const fleet::TraceJobClass& c = trace.classes[event.job_class];
    const Status status = [&] {
      Span span("wait", "FleetJobHandle::Wait");
      return handles[i].Wait();
    }();
    // Exactly one terminal state: waiting again must agree.
    report.Check(handles[i].Wait().code() == status.code(),
                 "job terminal state is stable");
    report.Count(status, "job " + std::to_string(i));
    samples.lag_ms.push_back(lateness_ns[i] * 1e-6);
    if (!status.ok()) continue;
    const fleet::FleetJobStats stats = handles[i].Stats();
    report.Check(stats.elements == event.elements,
                 "job " + std::to_string(i) + " produced " +
                     std::to_string(stats.elements) + " of " +
                     std::to_string(event.elements) + " elements");
    const double latency = lateness_ns[i] * 1e-9 + stats.completion_s;
    latency_s.push_back(latency);
    if (c.slo == SloClass::kInteractive) {
      samples.interactive_s.push_back(latency);
    }
    if (WithinTarget(c, latency)) {
      ++samples.good;
      samples.good_elements += stats.elements;
    }
    samples.exec_queue_ms.push_back(stats.exec_queue_s * 1e3);
    samples.fleet_queue_ms.push_back(stats.fleet_queue_s * 1e3);
    samples.run_ms.push_back(stats.run_s * 1e3);
    samples.busy_core_s += stats.elements * c.cost_ns * 1e-9;
    end_ns = std::max(end_ns, due_ns[i] + static_cast<int64_t>(latency * 1e9));
  }
  samples.replay_p50_s.push_back(Percentile(latency_s, 0.50));
  samples.replay_p99_s.push_back(Percentile(latency_s, 0.99));
  samples.jobs += static_cast<int64_t>(handles.size());
  samples.makespan_s += (end_ns - start) * 1e-9;
  samples.steals += setup.fleet->runtime().steal_count() - steals0;
}

void RunServe(const Args& args, Report& report) {
  const double window_s = MeasuredSeconds(args) / kServeSetups;
  const std::vector<fleet::TraceJobClass> classes = ServeClasses();
  EndToEnd e2e;
  ServeSamples samples;
  std::vector<double> traces_per_optimize;
  ServeSetup setup;
  // The consumer program of the layer probe: the bulk class, unbounded.
  const GraphDef probe_program = JobProgram(classes[1], -1);
  for (int k = 0; k < kServeSetups; ++k) {
    setup = ServeSetup();
    TrimHeap();
    const int64_t t0 = WallNanos();
    double optimize_s = 0;
    {
      Span span("bench", "setup");
      SetUpServe(SplitMix64(args.seed) + k, window_s, classes, setup, report);
      optimize_s = TimedOptimize(setup.fleet->env(), probe_program, report,
                                 &traces_per_optimize);
    }
    e2e.optimize_s.push_back(optimize_s);
    e2e.setup_s.push_back(SecondsSince(t0) - optimize_s);
    ReplayServe(setup, samples, report);
  }

  // Goodput in elements: those of jobs that finished within their
  // class's deadline, per second of makespan.
  const double makespan_s = std::max(1e-9, samples.makespan_s);
  e2e.elements_per_s = samples.good_elements / makespan_s;
  // Median over the replays, so interference during one replay does not
  // set the run's figure.
  e2e.latency_p50_s = Median(samples.replay_p50_s);
  e2e.latency_p99_s = Median(samples.replay_p99_s);
  e2e.Store(report);
  report.Set("core.traces_per_optimize_count", Median(traces_per_optimize));
  report.Set("fleet.interactive_p95_s",
             Percentile(samples.interactive_s, 0.95));
  report.Set("fleet.goodput_jobs_per_s", samples.good / makespan_s);
  report.Set("fleet.fleet_queue_p50_ms",
             Percentile(samples.fleet_queue_ms, 0.50));
  report.Set("fleet.fleet_queue_p99_ms",
             Percentile(samples.fleet_queue_ms, 0.99));
  report.Set("fleet.steal_count", static_cast<double>(samples.steals));
  report.Set("fleet.host_util_frac",
             samples.busy_core_s /
                 (makespan_s * kServeHosts * kServeHostCores));
  report.Set("bench.gen_lag_p99_ms", Percentile(samples.lag_ms, 0.99));
  std::printf("perfbench serve_mixed: %lld jobs, %zu interactive, %.3f s of "
              "replay\n",
              static_cast<long long>(samples.jobs),
              samples.interactive_s.size(), makespan_s);
  for (size_t k = 0; k < samples.replay_p50_s.size(); ++k) {
    std::printf("perfbench serve_mixed replay %zu: p50 %.6f s, p99 %.6f s\n",
                k, samples.replay_p50_s[k], samples.replay_p99_s[k]);
  }

  if (args.trace) {
    ProbeLayers(setup.fleet->env(), probe_program, 8, args.seconds, report);
    // The serving path's own numbers win over the probe's jobs.
    report.Set("api.submit_us", Median(samples.submit_us));
    report.Set("runtime.exec_queue_p50_ms",
               Percentile(samples.exec_queue_ms, 0.50));
    report.Set("runtime.exec_queue_p99_ms",
               Percentile(samples.exec_queue_ms, 0.99));
    report.Set("runtime.run_p50_ms", Percentile(samples.run_ms, 0.50));
  }
}

// ------------------------------------------------- pipeline workloads

// core.multi_job_plan_us: PlanMultiJobAllocation over a host's live set
// as serve_mixed shapes it (one rpc and one bulk job).
void MultiJobPlanProbe(Report& report) {
  std::vector<JobDemand> demands;
  for (const fleet::TraceJobClass& c : ServeClasses()) {
    JobDemand demand = DemandFromGraph(
        c.name, JobProgram(c, static_cast<int64_t>(c.mean_elements)));
    demand.tier = static_cast<int>(c.slo);
    demands.push_back(std::move(demand));
  }
  std::vector<double> plan_us;
  for (int i = 0; i < kPlannerRepeats; ++i) {
    const int64_t t0 = WallNanos();
    Span span("core", "PlanMultiJobAllocation");
    const MultiJobPlan plan = PlanMultiJobAllocation(demands, kServeHostCores);
    plan_us.push_back((WallNanos() - t0) * 1e-3);
    (void)plan;
  }
  report.Set("core.multi_job_plan_us", Median(plan_us));
}

// The hand-set transformer program: the pipeline's worker threads
// (tokenize's pool plus the prefetch thread) leave one core for the
// consumer.
GraphDef IngestProgram() {
  GraphDef graph = std::move(MakeWorkload("transformer")).value().graph;
  graph.MutableNode("tokenize")->attrs[kAttrParallelism] =
      AttrValue(std::max(1, Nproc() - 2));
  return graph;
}

constexpr int64_t kIngestWarmBatches = 64;  // also the identity sample
constexpr int64_t kTuneWarmBatches = 120;   // ~3 epochs: cache filled
constexpr int64_t kNaiveCheckBatches = 48;

// What a pipeline workload measured, pooled over its set-ups, plus the
// last set-up's session and program for the checks and the probe.
struct PipelineMeasurement {
  EndToEnd e2e;
  Window window;
  std::vector<double> traces_per_optimize;
  std::unique_ptr<Session> env;
  GraphDef program;
  Digest warm_digest;  // last set-up's warm-up batches after the first
};

// Builds a session and returns the program to run; may call
// TimedOptimize, whose seconds it adds to *optimize_s.
using Prepare = std::function<std::optional<GraphDef>(
    Session& env, PipelineMeasurement& m, double* optimize_s)>;

// Sets a pipeline workload up kSetups times. Each set-up creates the
// session, prepares the program, opens it and pulls `warm_batches`;
// then a 1/kSetups share of the window is measured on that set-up's
// pipeline, so every run averages over several thread placements.
bool MeasurePipeline(const Args& args, const DeviceSpec* storage,
                     int64_t warm_batches, const Prepare& prepare,
                     Report& report, PipelineMeasurement& m) {
  const double window_s = MeasuredSeconds(args) / kSetups;
  for (int k = 0; k < kSetups; ++k) {
    m.env.reset();
    TrimHeap();
    const int64_t t0 = WallNanos();
    double optimize_s = 0;
    Running run;
    {
      Span span("bench", "setup");
      m.env = MakeEnv(args.seed, storage, report);
      std::optional<GraphDef> program = prepare(*m.env, m, &optimize_s);
      if (!program.has_value()) return false;
      m.program = std::move(*program);
      report.Count(run.Open(m.program, m.env->MakePipelineOptions()),
                   "Pipeline open");
      if (run.iterator() == nullptr) return false;
      m.warm_digest = Digest();
      const Window warm =
          Drive(run.iterator(), 0, warm_batches - 1, &m.warm_digest);
      report.Count(warm.status, "warm-up");
    }
    m.e2e.optimize_s.push_back(optimize_s);
    m.e2e.setup_s.push_back(SecondsSince(t0) - optimize_s);
    const Window window = Drive(run.iterator(), window_s);
    report.attempted += window.batches;
    report.Count(window.status, "measured window");
    m.window.Append(window);
  }
  m.e2e.elements_per_s = m.window.ElementsPerSecond();
  m.e2e.latency_p50_s = Percentile(m.window.next_ns, 0.50) * 1e-9;
  m.e2e.latency_p99_s = m.window.P99Ns() * 1e-9;
  std::printf("perfbench %s: %lld batches in %.3f s, %zu chunks of %.0f s\n",
              args.workload.c_str(), static_cast<long long>(m.window.batches),
              m.window.seconds, m.window.chunk_p99_ns.size(), kChunkSeconds);
  m.e2e.Store(report);
  report.Set("core.traces_per_optimize_count",
             Median(m.traces_per_optimize));
  return true;
}

void RunIngest(const Args& args, Report& report) {
  const GraphDef program = IngestProgram();
  PipelineMeasurement m;
  const bool ok = MeasurePipeline(
      args, nullptr, kIngestWarmBatches,
      [&](Session& env, PipelineMeasurement& pm, double* optimize_s) {
        *optimize_s = TimedOptimize(env, program, report,
                                    &pm.traces_per_optimize);
        return std::optional<GraphDef>(program);
      },
      report, m);
  if (!ok) return;

  // Identity: the last set-up's warm-up batches (after the one Open
  // pulled) against the same batches of the single-thread reference.
  Running reference;
  report.Count(reference.Open(SequentialReference(program),
                              m.env->MakePipelineOptions()),
               "reference open");
  Digest expected;
  if (reference.iterator() != nullptr) {
    const Window ref =
        Drive(reference.iterator(), 0, kIngestWarmBatches - 1, &expected);
    report.Count(ref.status, "reference");
  }
  report.Check(m.warm_digest == expected && expected.count > 0,
               "ingest_text digest matches the single-thread reference");
  if (args.trace) {
    ProbeLayers(*m.env, program, kIngestWarmBatches, args.seconds, report);
  }
}

void RunTune(const Args& args, Report& report) {
  const Workload workload = std::move(MakeWorkload("multibox_ssd")).value();
  double predicted_rate = 0;
  PipelineMeasurement m;
  const bool ok = MeasurePipeline(
      args, &workload.storage, kTuneWarmBatches,
      [&](Session& env, PipelineMeasurement& pm,
          double* optimize_s) -> std::optional<GraphDef> {
        std::optional<OptimizedFlow> optimized;
        *optimize_s = TimedOptimize(env, workload.graph, report,
                                    &pm.traces_per_optimize, &optimized);
        if (!optimized.has_value()) return std::nullopt;
        predicted_rate = optimized->plan.predicted_rate;
        auto graph = optimized->Graph();
        report.Check(graph.ok(), "tuned graph");
        if (!graph.ok()) return std::nullopt;
        // The tuned program survives serialization.
        const std::string text = graph->Serialize();
        auto parsed = GraphDef::Parse(text);
        report.Check(parsed.ok() && parsed->Serialize() == text,
                     "tuned graph round-trips through Serialize/Parse");
        return std::move(graph).value();
      },
      report, m);
  if (!ok) return;

  // The tuned program yields the naive program's bytes per batch.
  Running naive;
  report.Count(naive.Open(workload.graph, m.env->MakePipelineOptions()),
               "naive open");
  if (naive.iterator() != nullptr && m.window.batches > 0) {
    const Window ref = Drive(naive.iterator(), 0, kNaiveCheckBatches);
    report.Count(ref.status, "naive run");
    const double tuned_bpb =
        static_cast<double>(m.window.bytes) / m.window.batches;
    const double naive_bpb =
        ref.batches > 0 ? static_cast<double>(ref.bytes) / ref.batches : 0;
    report.Check(naive_bpb > 0 && std::fabs(tuned_bpb / naive_bpb - 1) < 0.03,
                 "tuned bytes/batch " + std::to_string(tuned_bpb) +
                     " matches naive " + std::to_string(naive_bpb));
  }
  const double measured_rate =
      m.window.seconds > 0 ? m.window.batches / m.window.seconds : 0;
  report.Set("core.predicted_over_measured_rel",
             measured_rate > 0 ? predicted_rate / measured_rate : 0);
  if (args.trace) {
    ProbeLayers(*m.env, m.program, kTuneWarmBatches, args.seconds, report);
  }
}

// --------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

void PrintResult(const Report& report, bool per_layer) {
  std::string metrics;
  auto add = [&](const MetricDef& def) {
    const auto it = report.values.find(def.name);
    const double value = it == report.values.end() ? 0.0 : it->second;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    std::printf("metric %-42s %s %s\n", def.name, buf, def.unit);
    if (!metrics.empty()) metrics += ",";
    metrics += JsonString(def.name) + ":{\"value\":" + buf +
               ",\"unit\":" + JsonString(def.unit) + "}";
  };
  if (per_layer) {
    for (const MetricDef& def : kPerLayer) add(def);
  } else {
    for (const MetricDef& def : kEndToEnd) add(def);
  }
  std::printf("perfbench host %s\n", HostStampJson().c_str());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, report.attempted)),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ingest_text|tune_vision|"
                 "serve_mixed --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  // One malloc arena per core: without a cap, how many arenas exist
  // (and so the peak resident set and allocation locality) depends on
  // how many threads first allocated at the same time.
  mallopt(M_ARENA_MAX, Nproc());
  Report report;
  // Every per-layer name exists from the start, so a layer a workload
  // never exercises still reports (as 0).
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) report.values[def.name] = 0;
  }
  SpanLog::Get().set_enabled(args.trace);
  if (args.workload == "ingest_text") {
    RunIngest(args, report);
  } else if (args.workload == "tune_vision") {
    RunTune(args, report);
  } else if (args.workload == "serve_mixed") {
    RunServe(args, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    MultiJobPlanProbe(report);
    SpanLog::Get().set_enabled(false);
    for (const auto& [layer, seconds] : SpanLog::Get().SelfSecondsByLayer()) {
      if (report.values.count(layer + ".self_s") > 0) {
        report.Set(layer + ".self_s", seconds);
      }
    }
    if (!args.trace_out.empty()) {
      const std::string metadata =
          "{\"workload\":" + JsonString(args.workload) +
          ",\"seed\":" + std::to_string(args.seed) +
          ",\"host\":" + HostStampJson() + "}";
      if (!SpanLog::Get().WriteChromeTrace(args.trace_out, metadata)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        report.correct = false;
      } else {
        std::printf("perfbench trace %s\n", args.trace_out.c_str());
      }
    }
  }
  PrintResult(report, args.trace);
  return report.correct ? 0 : 1;
}
