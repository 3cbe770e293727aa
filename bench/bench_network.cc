// Network model bench: the headline gate for NIC devices, remote_read
// and costed migration.
//
// Phase A (remote-read throughput): a remote_read pipeline behind a
// session NIC with a hard token-bucket cap must sustain a wire rate
// within 15% of the modeled bandwidth bound — the NIC device paces
// like the resource it models, and nothing else in the engine gets in
// the way at NIC speed.
//
// Phase B (optimizer diagnosis): the same ingest behind a NIC too slow
// for the pipeline's CPU bound must come back from the optimizer as
// network_limited, and the shard_sources pass must refuse to shard it (N
// disks cannot feed a rate the wire refuses to carry).
//
// Phase C (costed migration): a backlog pinned to host 0, drained three
// ways — no stealing, stealing over free (unlimited) NICs, stealing
// over NICs with real bandwidth + latency. Stealing must still win over
// not stealing, and the costed p95 must sit within the modeled transfer
// time of the free-migration baseline (steals x both endpoints' charge).
//
// Phase D (streaming front door): a time-varying open-loop trace with a
// latency-SLO'd interactive class replayed through an SLO-aware fleet;
// the interactive p95 must meet the class target and attainment must
// hold — the exit-code gate for the online-inference story.
//
// BENCH_METRIC lines are gated by scripts/check_bench_regression.py:
// *_latency_s metrics gate as lower-is-better, *_count is context.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/api/fleet_session.h"
#include "src/util/busy_work.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

GraphDef RemoteIngestGraph() {
  GraphBuilder b;
  return std::move(b.Build(b.RemoteRead("remote", b.FileList("files", "data/"))))
      .value();
}

// ---------------------------------------------------------- Phase A

bool RunRemoteReadThroughput(double* out_frac) {
  PrintHeader("Phase A: remote_read throughput vs modeled NIC bound");
  const double bandwidth = 16e6;  // 16 MB/s token-bucket cap
  constexpr int kFiles = 4, kRecords = 500;
  constexpr uint64_t kRecordBytes = 8192;

  Session session;
  if (!session.CreateRecordFiles("data/f", kFiles, kRecords, kRecordBytes)
           .ok()) {
    return false;
  }
  session.AttachNic(DeviceSpec::TokenBucketLimit(bandwidth));

  RunOptions window;
  window.max_seconds = 30;  // safety stop; one epoch ends well before
  auto report = session.FromGraph(RemoteIngestGraph()).Run(window);
  if (!report.ok() || !report->reached_end) {
    std::printf("remote_read run failed: %s\n",
                report.ok() ? "did not reach end"
                            : report.status().ToString().c_str());
    return false;
  }
  const uint64_t wire_bytes = session.nic()->total_bytes_read();
  const double measured = wire_bytes / report->wall_seconds;
  const double frac = measured / bandwidth;
  *out_frac = frac;
  std::printf("moved %llu wire bytes in %.3fs: %.2f MB/s measured vs "
              "%.2f MB/s modeled (%.1f%%, bar: within 15%%)\n",
              (unsigned long long)wire_bytes, report->wall_seconds,
              measured / 1e6, bandwidth / 1e6, frac * 100);
  return frac >= 0.85 && frac <= 1.15;
}

// ---------------------------------------------------------- Phase B

bool RunOptimizerDiagnosis() {
  PrintHeader("Phase B: NIC-bound plan diagnosed network_limited");
  Session session;
  if (!session.CreateRecordFiles("data/f", 4, 400, 8192).ok()) return false;
  // A modeled HDD (so shard_sources has a disk bound to consider)
  // behind a 2 MB/s NIC: ~244 records/s of wire budget, far under both
  // the disk and the CPU bound, so the network owns the bottleneck
  // label and sharding must refuse.
  session.AttachStorage(DeviceSpec::Hdd());
  session.AttachNic(DeviceSpec::TokenBucketLimit(2e6));

  // The disk bound is an explicit planner knob: hand the pass the HDD's
  // bandwidth so it has a disk constraint to weigh against the wire.
  OptimizeOptions oopts;
  oopts.lp_options.disk_bandwidth = DeviceSpec::Hdd().max_bandwidth;
  auto optimized = session.FromGraph(RemoteIngestGraph())
                       .OptimizeWith("parallelism,shard_sources", oopts);
  if (!optimized.ok()) {
    std::printf("optimize failed: %s\n",
                optimized.status().ToString().c_str());
    return false;
  }
  bool plan_flag = optimized->plan.network_limited;
  bool lp_reported = false, shard_refused = false;
  for (const PassReport& pass : optimized->pass_reports) {
    std::printf("  pass %-12s %s\n", pass.pass.c_str(),
                pass.summary.c_str());
    if (pass.pass == "parallelism" &&
        pass.summary.find("network_limited") != std::string::npos) {
      lp_reported = true;
    }
    if (pass.pass == "shard_sources" && pass.shard_count == 0 &&
        pass.summary.find("network-limited") != std::string::npos) {
      shard_refused = true;
    }
  }
  std::printf("plan.network_limited=%d lp_reported=%d shard_refused=%d "
              "(bar: all three)\n",
              plan_flag, lp_reported, shard_refused);
  return plan_flag && lp_reported && shard_refused;
}

// ---------------------------------------------------------- Phase C

constexpr int kHosts = 4;

std::unique_ptr<FleetSession> MakeFleet(bool stealing, const DeviceSpec& nic) {
  FleetSessionOptions options;
  for (int h = 0; h < kHosts; ++h) {
    MachineSpec machine;
    machine.name = "host" + std::to_string(h);
    machine.num_cores = 2;
    machine.nic = nic;
    options.hosts.push_back(machine);
  }
  options.fleet.policy = fleet::DispatchPolicy::kLocality;
  options.fleet.work_stealing = stealing;
  options.fleet.host_concurrent_jobs = 1;
  return std::make_unique<FleetSession>(std::move(options));
}

fleet::ArrivalTrace PinnedBacklog() {
  fleet::PoissonTraceOptions options;
  options.seed = 11;
  options.num_jobs = 160;
  options.pin_fraction = 1.0;
  options.num_hosts = 1;  // every pin lands on host 0
  return fleet::MakePoissonTrace(fleet::CalibratedJobClasses(), options);
}

bool ReplayBacklog(FleetSession& cluster, const fleet::ArrivalTrace& trace,
                   fleet::FleetReport* out) {
  fleet::TraceReplayOptions drain;
  drain.respect_arrivals = false;
  auto report = cluster.Replay(trace, drain);
  if (!report.ok() || report->failed_jobs > 0) {
    std::printf("backlog replay failed: %s\n",
                report.ok() ? "jobs failed"
                            : report.status().ToString().c_str());
    return false;
  }
  *out = *report;
  return true;
}

bool RunCostedStealing(fleet::FleetReport* nosteal, fleet::FleetReport* free,
                       fleet::FleetReport* costed, double* allowance_s) {
  PrintHeader("Phase C: work stealing with migration transfer costs");
  const fleet::ArrivalTrace trace = PinnedBacklog();
  DeviceSpec cost_nic;
  cost_nic.name = "costed";
  cost_nic.max_bandwidth = 5e6;
  cost_nic.read_latency_s = 0.5e-3;

  auto a = MakeFleet(/*stealing=*/false, DeviceSpec::Unlimited());
  if (!ReplayBacklog(*a, trace, nosteal)) return false;
  auto b = MakeFleet(/*stealing=*/true, DeviceSpec::Unlimited());
  if (!ReplayBacklog(*b, trace, free)) return false;
  auto c = MakeFleet(/*stealing=*/true, cost_nic);
  if (!ReplayBacklog(*c, trace, costed)) return false;

  // Modeled upper bound on what the costed migrations may add to any
  // job: every steal charges both endpoints latency + payload/bw, and
  // migrations serialize in the dispatcher in the worst case. A small
  // absolute epsilon absorbs run-to-run scheduler noise.
  const double payload =
      costed->steal_count > 0
          ? static_cast<double>(costed->transfer_bytes) / costed->steal_count
          : 0;
  *allowance_s =
      costed->steal_count * 2 *
          (cost_nic.read_latency_s + payload / cost_nic.max_bandwidth) +
      0.05;

  Table table({"variant", "p95 s", "makespan s", "steals", "wire bytes"});
  table.AddRow({"no_steal", Table::Num(nosteal->p95_completion_s, 3),
                Table::Num(nosteal->makespan_s, 2),
                std::to_string(nosteal->steal_count),
                std::to_string(nosteal->transfer_bytes)});
  table.AddRow({"steal_free", Table::Num(free->p95_completion_s, 3),
                Table::Num(free->makespan_s, 2),
                std::to_string(free->steal_count),
                std::to_string(free->transfer_bytes)});
  table.AddRow({"steal_costed", Table::Num(costed->p95_completion_s, 3),
                Table::Num(costed->makespan_s, 2),
                std::to_string(costed->steal_count),
                std::to_string(costed->transfer_bytes)});
  table.Print();
  std::printf("\ncosted p95 bar: < no-steal p95 and <= free p95 + %.3fs "
              "modeled transfer allowance\n",
              *allowance_s);
  return costed->steal_count > 0 && costed->transfer_bytes > 0 &&
         costed->p95_completion_s < nosteal->p95_completion_s &&
         costed->p95_completion_s <=
             free->p95_completion_s + *allowance_s;
}

// ---------------------------------------------------------- Phase D

bool RunStreamingSlo(double* p95_s, double* attainment) {
  PrintHeader("Phase D: time-varying open-loop trace, interactive SLO");
  const double target_s = 0.5;
  std::vector<fleet::TraceJobClass> classes;
  fleet::TraceJobClass rpc;
  rpc.name = "rpc";
  rpc.weight = 0.8;
  rpc.cost_ns = 2e5;
  rpc.parallelism = 2;
  rpc.mean_elements = 8;
  rpc.slo = runtime::SloClass::kInteractive;
  rpc.latency_target_s = target_s;
  classes.push_back(rpc);
  fleet::TraceJobClass bulk;
  bulk.name = "bulk";
  bulk.weight = 0.2;
  bulk.cost_ns = 1e6;
  bulk.parallelism = 2;
  bulk.mean_elements = 16;  // kBatch, no deadline
  classes.push_back(bulk);

  fleet::TimeVaryingTraceOptions shape;
  shape.seed = 2026;
  shape.duration_s = 6;
  shape.base_rate = 40;
  shape.amplitude = 0.8;
  shape.period_s = 2;
  const fleet::ArrivalTrace trace =
      fleet::MakeTimeVaryingTrace(classes, shape);

  FleetSessionOptions options;
  for (int h = 0; h < kHosts; ++h) {
    MachineSpec machine;
    machine.name = "host" + std::to_string(h);
    machine.num_cores = 2;
    options.hosts.push_back(machine);
  }
  options.fleet.policy = fleet::DispatchPolicy::kSloAware;
  FleetSession cluster(std::move(options));
  fleet::TraceReplayOptions replay;
  replay.time_scale = 2.0;
  auto report = cluster.Replay(trace, replay);
  if (!report.ok() || report->failed_jobs > 0) {
    std::printf("streaming replay failed: %s\n",
                report.ok() ? "jobs failed"
                            : report.status().ToString().c_str());
    return false;
  }
  std::printf("%s", report->ToString().c_str());
  for (const fleet::FleetClassLatency& c : report->by_class) {
    if (c.slo != runtime::SloClass::kInteractive) continue;
    *p95_s = c.p95_completion_s;
    *attainment = c.attainment;
    std::printf("\ninteractive p95 %.3fs vs target %.3fs, attainment "
                "%.1f%% (bar: p95 <= target, attainment >= 95%%)\n",
                c.p95_completion_s, target_s, c.attainment * 100);
    return c.p95_completion_s <= target_s && c.attainment >= 0.95 &&
           c.shed_jobs == 0;
  }
  std::printf("no interactive class in replay report\n");
  return false;
}

}  // namespace

int main() {
  std::printf("BENCH_METRIC host_spin_rounds_per_ns %.6f\n",
              SpinRoundsPerNano());

  double bw_frac = 0;
  const bool phase_a = RunRemoteReadThroughput(&bw_frac);
  const bool phase_b = RunOptimizerDiagnosis();
  fleet::FleetReport nosteal, free_steal, costed;
  double allowance_s = 0;
  const bool phase_c =
      RunCostedStealing(&nosteal, &free_steal, &costed, &allowance_s);
  double stream_p95 = 0, stream_attainment = 0;
  const bool phase_d = RunStreamingSlo(&stream_p95, &stream_attainment);

  std::printf("BENCH_METRIC net.remote_read_bw_rel %.4f\n", bw_frac);
  std::printf("BENCH_METRIC net.nosteal_p95_latency_s %.4f\n",
              nosteal.p95_completion_s);
  std::printf("BENCH_METRIC net.steal_costed_p95_latency_s %.4f\n",
              costed.p95_completion_s);
  // The stealing win gates as a ratio (portable across hosts), capped
  // so one slow no-steal run cannot inflate the baseline.
  const double win = costed.p95_completion_s > 0
                         ? nosteal.p95_completion_s / costed.p95_completion_s
                         : 0;
  std::printf("BENCH_METRIC net.steal_win_rel %.4f\n", std::min(win, 3.0));
  std::printf("BENCH_METRIC net.steal_count %lld\n",
              (long long)costed.steal_count);
  std::printf("BENCH_METRIC net.streaming_interactive_p95_latency_s %.4f\n",
              stream_p95);
  std::printf("BENCH_METRIC net.streaming_attainment %.4f\n",
              stream_attainment);

  std::printf("\nphase gates: A=%d B=%d C=%d D=%d\n", phase_a, phase_b,
              phase_c, phase_d);
  return (phase_a && phase_b && phase_c && phase_d) ? 0 : 1;
}
