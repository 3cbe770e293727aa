// FleetRuntime: a modeled multi-host serving cluster.
//
// The runtime owns N modeled hosts, each a MachineSpec plus its own
// runtime::Executor — the exact Submit/JobHandle machinery a
// single-host Session uses, unchanged; a host's executor still
// arbitrates its own modeled cores across its live jobs with the
// maximin planner, and tiers both that split and its queue by SLO
// class. On top, a Dispatcher routes every submitted job to
// a host by pluggable policy:
//
//   kRoundRobin   next host in line, load-oblivious (the baseline)
//   kLeastLoaded  fewest (executor queued + running + fleet-queued)
//                 jobs per modeled core, from live LoadSnapshots
//   kLocality     a job's pinned_host when set, least-loaded otherwise
//   kSloAware     interactive jobs go to the host whose recently
//                 observed interactive queue latency p95 is lowest
//                 (ties and unobserved hosts by load); other classes
//                 dispatch least-loaded
//
// Jobs wait in per-host fleet queues; a pump thread feeds each host's
// executor only as many jobs as it can admit (plus one), keeping the
// remainder visible for cross-host work stealing:
// when a host drains while another is backlogged, the pump re-routes
// the victim's newest queued job to the idle host (pins are a locality
// preference, not a placement constraint — stealing overrides them and
// counts each override in steal_count()). A stolen job's serialized
// program is charged through the victim's and the thief's NICs before
// it runs, outside the fleet lock.
//
// Timing model of one job's life:
//   Submit -> dispatch (fleet queue)          FleetJobStats.fleet_queue_s
//   dispatch -> driver start (executor queue) FleetJobStats.exec_queue_s
//   driver start -> finish                    FleetJobStats.run_s
// completion_s is the sum: what a caller waits end to end.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/io/storage_device.h"
#include "src/runtime/executor.h"

namespace plumber {
namespace fleet {

enum class DispatchPolicy { kRoundRobin, kLeastLoaded, kLocality, kSloAware };

const char* DispatchPolicyName(DispatchPolicy policy);

struct FleetOptions {
  // One modeled machine per host; empty gets one default host.
  std::vector<MachineSpec> hosts;
  DispatchPolicy policy = DispatchPolicy::kLeastLoaded;
  bool work_stealing = true;
  // Jobs one host's executor runs concurrently (its modeled cores are
  // arbitrated across them). Fleet-level queueing happens beyond this.
  int host_concurrent_jobs = 2;
};

struct FleetJobOptions {
  // Per-job runtime options; job.slo carries the SLO class across the
  // fleet — the kSloAware dispatcher routes on it and every host
  // executor schedules by it.
  runtime::JobOptions job;
  // Locality preference: the kLocality policy dispatches to this host;
  // work stealing may still move the job if the host is backlogged.
  int pinned_host = -1;
};

// Final per-job accounting (valid once Wait() returned OK).
struct FleetJobStats {
  int host = -1;            // host that ran the job
  bool stolen = false;      // re-routed by work stealing
  runtime::SloClass slo = runtime::SloClass::kBatch;
  double fleet_queue_s = 0;
  double exec_queue_s = 0;
  double run_s = 0;
  double completion_s = 0;  // fleet_queue + exec_queue + run
  int64_t elements = 0;
  // Serialized program bytes moved across the wire when this job was
  // re-routed off the host that held it (0 when it ran where queued).
  uint64_t transfer_bytes = 0;
};

namespace internal {
struct FleetJobRecord;
}  // namespace internal

// Cheap copyable handle to one fleet job; usable after the runtime is
// gone (a job already handed to a host keeps running under that
// host's executor lifetime rules).
class FleetJobHandle {
 public:
  FleetJobHandle() = default;

  bool valid() const { return record_ != nullptr; }
  // Blocks until the job finishes everywhere (fleet queue, executor
  // queue, run). Shutdown before dispatch or a failed run surfaces as
  // the error.
  Status Wait() const;
  // Accounting snapshot; call after Wait() returned.
  FleetJobStats Stats() const;

 private:
  friend class FleetRuntime;
  explicit FleetJobHandle(std::shared_ptr<internal::FleetJobRecord> record)
      : record_(std::move(record)) {}

  std::shared_ptr<internal::FleetJobRecord> record_;
};

// Combined load view of one host.
struct FleetHostLoad {
  runtime::ExecutorLoadSnapshot executor;
  int fleet_queued = 0;  // waiting in this host's stealable queue
  // p95 of the host's recently observed interactive queue latencies
  // (fleet queue + executor queue, seconds); 0 until a sample lands.
  // The signal the kSloAware dispatcher routes interactive jobs by.
  double interactive_p95_queue_s = 0;
};

class FleetRuntime {
 public:
  // `pipeline_options(host)` derives instantiation options for one
  // host's executor (filesystem/UDF pointers, that host's cpu_scale
  // and memory budget); invoked on executor threads, must stay valid
  // for the runtime's life. FleetSession (src/api/fleet_session.h)
  // wires this from a Session environment.
  FleetRuntime(FleetOptions options,
               std::function<PipelineOptions(int host)> pipeline_options);
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  // Routes the job to a host queue by policy and returns immediately.
  FleetJobHandle Submit(GraphDef graph, FleetJobOptions options = {});

  int num_hosts() const { return static_cast<int>(executors_.size()); }
  const MachineSpec& host_machine(int host) const {
    return options_.hosts[host];
  }
  FleetHostLoad HostLoad(int host) const;
  // Jobs re-routed across hosts by work stealing so far.
  int64_t steal_count() const {
    return steal_count_.load(std::memory_order_relaxed);
  }
  // This host's modeled NIC (never null): remote_read wire bytes and
  // migration payloads all land on its counters, so per-host network
  // utilization comes from one place.
  StorageDevice* host_nic(int host) const { return nics_[host].get(); }
  // Total serialized program bytes moved between hosts by stealing.
  uint64_t transfer_bytes() const {
    return transfer_bytes_.load(std::memory_order_relaxed);
  }

 private:
  using RecordPtr = std::shared_ptr<internal::FleetJobRecord>;

  void PumpLoop();
  // Picks the target host for a new job (mu_ held).
  int RouteLocked(const internal::FleetJobRecord& record);
  int LeastLoadedLocked() const;
  // The kSloAware choice for an interactive job: lowest observed
  // interactive queue-latency p95, load as tiebreak (mu_ held).
  int LowestInteractiveLatencyLocked() const;
  double InteractiveP95Locked(int host) const;
  // Sweeps dispatched interactive jobs whose queueing has ended into
  // the per-host latency windows (mu_ held).
  void SampleInteractiveLatencyLocked();
  // Hands one queued record to a host's executor (mu_ held).
  // `transfer_bytes` is what the pump already charged through both
  // NICs to migrate a stolen record here; 0 when it runs where queued.
  void DispatchLocked(RecordPtr record, int host, uint64_t transfer_bytes = 0);

  FleetOptions options_;
  const std::function<PipelineOptions(int host)> pipeline_options_;
  // Per-host NICs, built from hosts[h].nic; declared before the
  // executors so running pipelines (which borrow the pointers) are
  // torn down first.
  std::vector<std::unique_ptr<StorageDevice>> nics_;
  std::vector<std::unique_ptr<runtime::Executor>> executors_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t next_id_ = 1;
  int rr_next_ = 0;
  std::vector<std::deque<RecordPtr>> queues_;  // per-host, stealable
  std::atomic<int64_t> steal_count_{0};
  std::atomic<uint64_t> transfer_bytes_{0};
  // Interactive jobs dispatched but not yet sampled: once a job's
  // driver starts (queueing over), its fleet+executor queue latency
  // lands in its host's sliding window below and it leaves this list.
  std::vector<RecordPtr> latency_watch_;
  std::vector<std::deque<double>> interactive_queue_s_;  // per-host window
  std::thread pump_;
};

}  // namespace fleet
}  // namespace plumber
