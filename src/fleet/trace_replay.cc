#include "src/fleet/trace_replay.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/pipeline/graph_builder.h"
#include "src/util/cpu_timer.h"

namespace plumber {
namespace fleet {
namespace {

std::string ClassUdfName(const TraceJobClass& job_class) {
  return "fleet_class_" + job_class.name;
}

// The per-event program: a finite range through one modeled map stage
// shaped like the event's class.
GraphDef MakeJobGraph(const ArrivalTrace& trace, const ArrivalEvent& event) {
  const TraceJobClass& job_class = trace.classes[event.job_class];
  GraphBuilder b;
  const std::string work =
      b.Map("work", b.Range("src", event.elements), ClassUdfName(job_class),
            job_class.parallelism);
  return std::move(b.Build(work)).value();
}

}  // namespace

double LatencyPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[idx];
}

StatusOr<FleetReport> TraceReplayDriver::Replay(
    const ArrivalTrace& trace, const TraceReplayOptions& options) {
  if (trace.classes.empty()) {
    return InvalidArgumentError("trace has no job classes");
  }
  if (options.time_scale <= 0) {
    return InvalidArgumentError("time_scale must be positive");
  }
  for (const TraceJobClass& job_class : trace.classes) {
    if (udfs_->Find(ClassUdfName(job_class)) != nullptr) continue;
    UdfSpec spec;
    spec.name = ClassUdfName(job_class);
    spec.cost_ns_per_element = job_class.cost_ns;
    RETURN_IF_ERROR(udfs_->Register(std::move(spec)));
  }

  // NIC byte counters are cumulative over the runtime's life; diff
  // against a baseline so back-to-back replays report their own bytes.
  std::vector<uint64_t> nic_bytes_before(fleet_->num_hosts(), 0);
  for (int h = 0; h < fleet_->num_hosts(); ++h) {
    nic_bytes_before[h] = fleet_->host_nic(h)->total_bytes_read();
  }
  const uint64_t transfer_bytes_before = fleet_->transfer_bytes();
  const int64_t steals_before = fleet_->steal_count();

  const int64_t t0 = WallNanos();
  std::vector<FleetJobHandle> handles;
  handles.reserve(trace.events.size());
  for (const ArrivalEvent& event : trace.events) {
    if (options.respect_arrivals) {
      const double due_s = event.arrival_s / options.time_scale;
      const double now_s = (WallNanos() - t0) * 1e-9;
      if (due_s > now_s) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(due_s - now_s));
      }
    }
    FleetJobOptions jopts;
    jopts.pinned_host = event.pinned_host;
    // The class's scheduling identity rides along: hosts tier/weight
    // the job, the kSloAware dispatcher routes interactive traffic.
    jopts.job.slo = trace.classes[event.job_class].slo;
    jopts.job.priority = trace.classes[event.job_class].priority;
    // Deadline too: host executors order same-class jobs by it and
    // shed queued jobs it has already passed beyond rescue.
    jopts.job.latency_target_s = trace.classes[event.job_class].latency_target_s;
    handles.push_back(fleet_->Submit(MakeJobGraph(trace, event), jopts));
  }

  FleetReport report;
  report.num_hosts = fleet_->num_hosts();
  report.num_jobs = static_cast<int64_t>(handles.size());
  std::vector<double> queue_s, completion_s;
  std::array<std::vector<double>, runtime::kNumSloClasses> class_queue_s;
  std::array<std::vector<double>, runtime::kNumSloClasses> class_completion_s;
  std::array<int64_t, runtime::kNumSloClasses> class_target_jobs = {};
  std::array<int64_t, runtime::kNumSloClasses> class_attained = {};
  std::array<int64_t, runtime::kNumSloClasses> class_shed = {};
  std::array<double, runtime::kNumSloClasses> class_target_s = {};
  std::vector<double> busy_core_s(report.num_hosts, 0);
  queue_s.reserve(handles.size());
  completion_s.reserve(handles.size());
  double completion_sum = 0;
  for (size_t i = 0; i < handles.size(); ++i) {
    const double target_s =
        trace.classes[trace.events[i].job_class].latency_target_s;
    const auto event_slo =
        static_cast<size_t>(trace.classes[trace.events[i].job_class].slo);
    if (target_s > 0 &&
        (class_target_s[event_slo] == 0 ||
         target_s < class_target_s[event_slo])) {
      class_target_s[event_slo] = target_s;
    }
    const Status status = handles[i].Wait();
    if (!status.ok()) {
      // A deadline shed is an admission decision, not a failure: the
      // executor refused work it could no longer finish in time.
      if (status.code() == StatusCode::kResourceExhausted) {
        ++report.shed_jobs;
        ++class_shed[event_slo];
        if (target_s > 0) ++class_target_jobs[event_slo];
      } else {
        ++report.failed_jobs;
      }
      continue;
    }
    const FleetJobStats stats = handles[i].Stats();
    queue_s.push_back(stats.fleet_queue_s + stats.exec_queue_s);
    completion_s.push_back(stats.completion_s);
    completion_sum += stats.completion_s;
    const auto slo_idx = static_cast<size_t>(stats.slo);
    if (target_s > 0) {
      ++class_target_jobs[slo_idx];
      if (stats.completion_s <= target_s) ++class_attained[slo_idx];
    }
    class_queue_s[slo_idx].push_back(stats.fleet_queue_s +
                                     stats.exec_queue_s);
    class_completion_s[slo_idx].push_back(stats.completion_s);
    if (stats.host >= 0 && stats.host < report.num_hosts) {
      const TraceJobClass& job_class =
          trace.classes[trace.events[i].job_class];
      busy_core_s[stats.host] +=
          static_cast<double>(trace.events[i].elements) *
          job_class.cost_ns * 1e-9 *
          fleet_->host_machine(stats.host).cpu_scale;
    }
  }
  report.makespan_s = (WallNanos() - t0) * 1e-9;
  report.steal_count = fleet_->steal_count() - steals_before;
  report.transfer_bytes = fleet_->transfer_bytes() - transfer_bytes_before;
  report.p50_queue_s = LatencyPercentile(queue_s, 0.50);
  report.p95_queue_s = LatencyPercentile(queue_s, 0.95);
  report.p99_queue_s = LatencyPercentile(queue_s, 0.99);
  report.p50_completion_s = LatencyPercentile(completion_s, 0.50);
  report.p95_completion_s = LatencyPercentile(completion_s, 0.95);
  report.p99_completion_s = LatencyPercentile(completion_s, 0.99);
  if (!completion_s.empty()) {
    report.mean_completion_s =
        completion_sum / static_cast<double>(completion_s.size());
  }
  for (int c = 0; c < runtime::kNumSloClasses; ++c) {
    const std::vector<double>& cq = class_queue_s[c];
    const std::vector<double>& cc = class_completion_s[c];
    if (cc.empty() && class_shed[c] == 0) continue;
    FleetClassLatency latency;
    latency.slo = static_cast<runtime::SloClass>(c);
    latency.num_jobs = static_cast<int64_t>(cc.size());
    latency.p50_queue_s = LatencyPercentile(cq, 0.50);
    latency.p95_queue_s = LatencyPercentile(cq, 0.95);
    latency.p50_completion_s = LatencyPercentile(cc, 0.50);
    latency.p95_completion_s = LatencyPercentile(cc, 0.95);
    double sum = 0;
    for (double v : cc) sum += v;
    if (!cc.empty()) {
      latency.mean_completion_s = sum / static_cast<double>(cc.size());
    }
    latency.target_jobs = class_target_jobs[c];
    latency.shed_jobs = class_shed[c];
    latency.latency_target_s = class_target_s[c];
    // A shed job counts against attainment: its deadline was missed by
    // construction, just without burning cores on it.
    if (class_target_jobs[c] > 0) {
      latency.attainment = static_cast<double>(class_attained[c]) /
                           static_cast<double>(class_target_jobs[c]);
    }
    report.by_class.push_back(latency);
  }
  double total_cores = 0, weighted = 0;
  double net_sum = 0;
  int net_hosts = 0;
  for (int h = 0; h < report.num_hosts; ++h) {
    const double cores =
        std::max(1, fleet_->host_machine(h).num_cores);
    const double util =
        report.makespan_s > 0
            ? std::min(1.0, busy_core_s[h] / (report.makespan_s * cores))
            : 0;
    report.host_utilization.push_back(util);
    total_cores += cores;
    weighted += util * cores;
    // NIC busy fraction from the device's own byte counter — the same
    // counter remote_read metering and migration charging feed.
    const double nic_bw = fleet_->host_nic(h)->spec().max_bandwidth;
    const uint64_t nic_bytes =
        fleet_->host_nic(h)->total_bytes_read() - nic_bytes_before[h];
    double net_util = 0;
    if (nic_bw > 0 && report.makespan_s > 0) {
      net_util = std::min(
          1.0, static_cast<double>(nic_bytes) / (report.makespan_s * nic_bw));
      ++net_hosts;
      net_sum += net_util;
    }
    report.host_network_utilization.push_back(net_util);
  }
  if (total_cores > 0) report.mean_utilization = weighted / total_cores;
  if (net_hosts > 0) report.mean_network_utilization = net_sum / net_hosts;
  return report;
}

std::string FleetReport::ToString() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "fleet replay: %lld jobs on %d hosts, makespan %.2fs, "
                "%lld failed, %lld shed, %lld stolen (%llu wire bytes)\n",
                static_cast<long long>(num_jobs), num_hosts, makespan_s,
                static_cast<long long>(failed_jobs),
                static_cast<long long>(shed_jobs),
                static_cast<long long>(steal_count),
                static_cast<unsigned long long>(transfer_bytes));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  queue      p50 %.3fs  p95 %.3fs  p99 %.3fs\n",
                p50_queue_s, p95_queue_s, p99_queue_s);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  completion p50 %.3fs  p95 %.3fs  p99 %.3fs  mean %.3fs\n",
                p50_completion_s, p95_completion_s, p99_completion_s,
                mean_completion_s);
  out += buf;
  for (const FleetClassLatency& c : by_class) {
    std::snprintf(buf, sizeof(buf),
                  "  class %-11s %6lld jobs  queue p50 %.3fs p95 %.3fs  "
                  "completion p50 %.3fs p95 %.3fs mean %.3fs\n",
                  runtime::SloClassName(c.slo),
                  static_cast<long long>(c.num_jobs), c.p50_queue_s,
                  c.p95_queue_s, c.p50_completion_s, c.p95_completion_s,
                  c.mean_completion_s);
    out += buf;
    if (c.target_jobs > 0 || c.shed_jobs > 0) {
      std::snprintf(buf, sizeof(buf),
                    "    slo target %.3fs: attainment %.1f%% over %lld jobs, "
                    "%lld shed\n",
                    c.latency_target_s, c.attainment * 100,
                    static_cast<long long>(c.target_jobs),
                    static_cast<long long>(c.shed_jobs));
      out += buf;
    }
  }
  out += "  utilization";
  for (size_t h = 0; h < host_utilization.size(); ++h) {
    std::snprintf(buf, sizeof(buf), " host%zu=%.2f", h, host_utilization[h]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " mean=%.2f\n", mean_utilization);
  out += buf;
  out += "  network    ";
  for (size_t h = 0; h < host_network_utilization.size(); ++h) {
    std::snprintf(buf, sizeof(buf), " host%zu=%.2f", h,
                  host_network_utilization[h]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " mean=%.2f\n", mean_network_utilization);
  out += buf;
  return out;
}

}  // namespace fleet
}  // namespace plumber
