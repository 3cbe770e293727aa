// Trace replay: the fleet runtime's front door.
//
// TraceReplayDriver turns an ArrivalTrace into live load: for each
// event it builds a range -> map program from the event's job class
// (registering one modeled UDF per class), submits it to the
// FleetRuntime at the event's (time-scaled) arrival offset, then waits
// out every job and folds the per-job FleetJobStats into a
// FleetReport — fleet-wide latency quantiles, per-host modeled
// utilization, and the steal counter.
//
// Utilization is modeled, not measured: a host's busy core-seconds are
// the sum over its jobs of elements x class cost x the host's
// cpu_scale, divided by (makespan x modeled cores). Because modeled
// UDF cost runs as a timed wait on the modeled machine (udf.h), that
// equals what a real host would have burned, while staying exact on
// any build machine.
#pragma once

#include <string>
#include <vector>

#include "src/fleet/arrival_trace.h"
#include "src/fleet/fleet_runtime.h"
#include "src/pipeline/udf.h"

namespace plumber {
namespace fleet {

struct TraceReplayOptions {
  // Divides every arrival offset: 2 replays the trace twice as fast.
  double time_scale = 1.0;
  // false = ignore arrival times and submit everything immediately
  // (a pure backlog drain; useful in tests).
  bool respect_arrivals = true;
};

// Latency quantiles for one SLO class's slice of a replay — the view
// that shows whether interactive traffic actually got its latency
// while batch kept its throughput.
struct FleetClassLatency {
  runtime::SloClass slo = runtime::SloClass::kBatch;
  int64_t num_jobs = 0;
  double p50_queue_s = 0, p95_queue_s = 0;
  double p50_completion_s = 0, p95_completion_s = 0;
  double mean_completion_s = 0;
  // Deadline scoring for the slice of this class's jobs that carried a
  // latency target (trace classes with latency_target_s > 0):
  // attainment = completed within target / jobs with a target, and
  // shed_jobs counts queued jobs the executors shed because their
  // deadline expired in the queue. 0/0 attainment reports as 1.
  int64_t target_jobs = 0;
  int64_t shed_jobs = 0;
  double attainment = 1.0;
  // Smallest target among this class's trace classes (reporting aid).
  double latency_target_s = 0;
};

struct FleetReport {
  int num_hosts = 0;
  int64_t num_jobs = 0;
  int64_t failed_jobs = 0;
  // Jobs the executors refused to run because their deadline was
  // already unmeetable at dispatch (not counted in failed_jobs).
  int64_t shed_jobs = 0;
  int64_t steal_count = 0;
  // Serialized program bytes moved between hosts by work stealing.
  uint64_t transfer_bytes = 0;
  double makespan_s = 0;  // first submit -> last completion
  // Queue latency = fleet queue + executor queue (submit -> running).
  double p50_queue_s = 0, p95_queue_s = 0, p99_queue_s = 0;
  // Completion latency = queue + run (submit -> finished).
  double p50_completion_s = 0, p95_completion_s = 0, p99_completion_s = 0;
  double mean_completion_s = 0;
  // Per-SLO-class breakdown of the same latencies; only classes with
  // at least one completed job appear, in tier order.
  std::vector<FleetClassLatency> by_class;
  // Modeled busy-core fraction per host over the makespan, and the
  // core-weighted fleet mean.
  std::vector<double> host_utilization;
  double mean_utilization = 0;
  // Modeled NIC busy fraction per host over the makespan — bytes the
  // host's NIC device carried during the replay divided by
  // (makespan x NIC bandwidth); 0 for unlimited NICs. Sits next to
  // host_utilization so a network-bound fleet is as visible as a
  // CPU-bound one.
  std::vector<double> host_network_utilization;
  double mean_network_utilization = 0;

  std::string ToString() const;
};

class TraceReplayDriver {
 public:
  // Both pointers must outlive the driver; `udfs` must be the registry
  // the runtime's pipeline_options hands to every host.
  TraceReplayDriver(FleetRuntime* fleet, UdfRegistry* udfs)
      : fleet_(fleet), udfs_(udfs) {}

  // Registers the trace's class UDFs (idempotent across calls),
  // submits every event, waits for all jobs, reports. The registry
  // must not be mutated elsewhere while jobs are live.
  StatusOr<FleetReport> Replay(const ArrivalTrace& trace,
                               const TraceReplayOptions& options = {});

 private:
  FleetRuntime* fleet_;
  UdfRegistry* udfs_;
};

// Sorted-percentile helper shared by the report and the benches
// (nearest-rank on p in [0, 1]).
double LatencyPercentile(std::vector<double> values, double p);

}  // namespace fleet
}  // namespace plumber
