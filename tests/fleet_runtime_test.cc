// Fleet runtime tests: dispatch policies (round-robin, least-loaded,
// locality), cross-host work stealing, shutdown with queued jobs, and
// the FleetSession trace-replay front door.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "src/api/fleet_session.h"
#include "src/pipeline/ops.h"
#include "tests/test_util.h"

namespace plumber {
namespace fleet {
namespace {

using testing_util::PollUntil;

// A fleet of small identical hosts sharing one registered UDF.
std::unique_ptr<FleetSession> MakeFleet(int hosts, DispatchPolicy policy,
                                        bool stealing,
                                        double cost_ns = 1e6) {
  FleetSessionOptions options;
  for (int h = 0; h < hosts; ++h) {
    MachineSpec machine;
    machine.num_cores = 4;
    machine.name = "host" + std::to_string(h);
    options.hosts.push_back(machine);
  }
  options.fleet.policy = policy;
  options.fleet.work_stealing = stealing;
  auto fleet = std::make_unique<FleetSession>(std::move(options));
  UdfSpec work;
  work.name = "work";
  work.cost_ns_per_element = cost_ns;
  EXPECT_TRUE(fleet->RegisterUdf(work).ok());
  return fleet;
}

GraphDef WorkGraph(int64_t elements, int parallelism = 2) {
  GraphDef graph;
  NodeDef src;
  src.name = "src";
  src.op = "range";
  src.attrs[kAttrCount] = AttrValue(elements);
  EXPECT_TRUE(graph.AddNode(std::move(src)).ok());
  NodeDef work;
  work.name = "work";
  work.op = "map";
  work.inputs = {"src"};
  work.attrs[kAttrUdf] = AttrValue("work");
  work.attrs[kAttrParallelism] = AttrValue(parallelism);
  EXPECT_TRUE(graph.AddNode(std::move(work)).ok());
  graph.SetOutput("work");
  return graph;
}

TEST(FleetRuntimeTest, RoundRobinSpreadsJobsAcrossHosts) {
  auto fleet = MakeFleet(4, DispatchPolicy::kRoundRobin,
                         /*stealing=*/false, /*cost_ns=*/1e5);
  std::vector<FleetJobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(fleet->Submit(WorkGraph(20)));
  }
  std::vector<int> per_host(4, 0);
  for (FleetJobHandle& handle : handles) {
    ASSERT_TRUE(handle.Wait().ok());
    const FleetJobStats stats = handle.Stats();
    ASSERT_GE(stats.host, 0);
    ASSERT_LT(stats.host, 4);
    ++per_host[stats.host];
    EXPECT_EQ(stats.elements, 20);
    EXPECT_GT(stats.completion_s, 0);
  }
  for (int h = 0; h < 4; ++h) EXPECT_EQ(per_host[h], 2) << "host " << h;
  EXPECT_EQ(fleet->runtime().steal_count(), 0);
}

TEST(FleetRuntimeTest, LeastLoadedAvoidsBusyHost) {
  auto fleet = MakeFleet(2, DispatchPolicy::kLeastLoaded,
                         /*stealing=*/false);
  // Occupy host 0 with pinned long jobs (least-loaded ignores pins,
  // so seed the imbalance through the runtime's locality plumbing:
  // submit them first — with equal load ties go to host 0).
  std::vector<FleetJobHandle> blockers;
  for (int i = 0; i < 3; ++i) {
    blockers.push_back(fleet->Submit(WorkGraph(400, 1)));
  }
  ASSERT_TRUE(PollUntil([&] {
    const FleetHostLoad load = fleet->runtime().HostLoad(0);
    return load.executor.running_jobs > 0;
  }));
  // New short jobs must land on the emptier host 1.
  FleetJobHandle probe = fleet->Submit(WorkGraph(10));
  ASSERT_TRUE(probe.Wait().ok());
  EXPECT_EQ(probe.Stats().host, 1);
  for (FleetJobHandle& handle : blockers) ASSERT_TRUE(handle.Wait().ok());
}

TEST(FleetRuntimeTest, LocalityPinRoutesToPinnedHost) {
  auto fleet = MakeFleet(3, DispatchPolicy::kLocality,
                         /*stealing=*/false, /*cost_ns=*/1e5);
  std::vector<FleetJobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    FleetJobOptions options;
    options.pinned_host = i % 3;
    handles.push_back(fleet->Submit(WorkGraph(10), options));
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(handles[i].Wait().ok());
    EXPECT_EQ(handles[i].Stats().host, i % 3) << "job " << i;
    EXPECT_FALSE(handles[i].Stats().stolen);
  }
}

TEST(FleetRuntimeTest, WorkStealingRebalancesPinnedBacklog) {
  // Everything pinned to host 0: without stealing host 1 would idle;
  // with stealing it must take over part of the backlog.
  auto fleet = MakeFleet(2, DispatchPolicy::kLocality,
                         /*stealing=*/true);
  std::vector<FleetJobHandle> handles;
  for (int i = 0; i < 12; ++i) {
    FleetJobOptions options;
    options.pinned_host = 0;
    handles.push_back(fleet->Submit(WorkGraph(40), options));
  }
  int stolen = 0, on_host1 = 0;
  for (FleetJobHandle& handle : handles) {
    ASSERT_TRUE(handle.Wait().ok());
    const FleetJobStats stats = handle.Stats();
    if (stats.stolen) ++stolen;
    if (stats.host == 1) ++on_host1;
  }
  EXPECT_GT(stolen, 0);
  EXPECT_EQ(stolen, on_host1);  // only steals move a pinned job
  EXPECT_EQ(fleet->runtime().steal_count(), stolen);
}

TEST(FleetRuntimeTest, StealMigrationChargesTransferThroughBothNics) {
  // Same pinned-backlog shape as the stealing test, but the hosts have
  // real NICs: every migration must charge the serialized program
  // through the victim's and the thief's device, byte for byte.
  FleetSessionOptions options;
  for (int h = 0; h < 2; ++h) {
    MachineSpec machine;
    machine.num_cores = 4;
    machine.name = "host" + std::to_string(h);
    machine.nic = DeviceSpec::TokenBucketLimit(50e6);
    options.hosts.push_back(machine);
  }
  options.fleet.policy = DispatchPolicy::kLocality;
  options.fleet.work_stealing = true;
  FleetSession fleet(std::move(options));
  UdfSpec work;
  work.name = "work";
  work.cost_ns_per_element = 1e6;
  ASSERT_TRUE(fleet.RegisterUdf(work).ok());

  const uint64_t payload = WorkGraph(40).Serialize().size();
  ASSERT_GT(payload, 0u);
  std::vector<FleetJobHandle> handles;
  for (int i = 0; i < 12; ++i) {
    FleetJobOptions jopts;
    jopts.pinned_host = 0;
    handles.push_back(fleet.Submit(WorkGraph(40), jopts));
  }
  uint64_t stolen = 0;
  for (FleetJobHandle& handle : handles) {
    ASSERT_TRUE(handle.Wait().ok());
    const FleetJobStats stats = handle.Stats();
    if (stats.stolen) {
      ++stolen;
      EXPECT_EQ(stats.transfer_bytes, payload);
    } else {
      EXPECT_EQ(stats.transfer_bytes, 0u);
    }
  }
  ASSERT_GT(stolen, 0u);
  // Fleet-wide total and the two endpoint NICs agree exactly: these
  // jobs move no other bytes, so migration is the only NIC traffic.
  EXPECT_EQ(fleet.runtime().transfer_bytes(), stolen * payload);
  EXPECT_EQ(fleet.runtime().host_nic(0)->total_bytes_read(), stolen * payload);
  EXPECT_EQ(fleet.runtime().host_nic(1)->total_bytes_read(), stolen * payload);
  EXPECT_EQ(fleet.runtime().host_nic(0)->total_reads(), stolen);
  EXPECT_EQ(fleet.runtime().host_nic(1)->total_reads(), stolen);
}

TEST(FleetRuntimeTest, SubmitDuringStealDoesNotWaitOutTheTransfer) {
  // Every migration pays 2 x 250 ms of NIC latency. The pump charges it
  // outside the fleet lock, so a Submit issued mid-steal returns at
  // once instead of waiting the transfer out.
  FleetSessionOptions options;
  for (int h = 0; h < 2; ++h) {
    MachineSpec machine;
    machine.num_cores = 4;
    machine.name = "host" + std::to_string(h);
    machine.nic.read_latency_s = 0.25;
    options.hosts.push_back(machine);
  }
  options.fleet.policy = DispatchPolicy::kLocality;
  options.fleet.work_stealing = true;
  options.fleet.host_concurrent_jobs = 1;
  FleetSession fleet(std::move(options));
  UdfSpec work;
  work.name = "work";
  work.cost_ns_per_element = 1e6;
  ASSERT_TRUE(fleet.RegisterUdf(work).ok());

  // Host 0's executor takes two of these (one running, one queued); the
  // third waits in its fleet queue until idle host 1 steals it. The
  // jobs outlast the test, and shutdown cancels them.
  FleetJobOptions pinned;
  pinned.pinned_host = 0;
  for (int i = 0; i < 3; ++i) fleet.Submit(WorkGraph(1 << 20), pinned);
  ASSERT_TRUE(PollUntil([&] { return fleet.runtime().steal_count() >= 1; }));
  const auto t0 = std::chrono::steady_clock::now();
  fleet.Submit(WorkGraph(1 << 20), pinned);
  const double submit_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_LT(submit_s, 0.05);
}

TEST(FleetRuntimeTest, ShutdownFailsUndispatchedJobsCleanly) {
  std::vector<FleetJobHandle> handles;
  {
    auto fleet = MakeFleet(1, DispatchPolicy::kRoundRobin,
                           /*stealing=*/false);
    // Far more jobs than one 2-concurrent host drains instantly; the
    // tail is still fleet-queued when the runtime dies.
    for (int i = 0; i < 30; ++i) {
      handles.push_back(fleet->Submit(WorkGraph(200)));
    }
  }
  int cancelled = 0;
  for (FleetJobHandle& handle : handles) {
    if (!handle.Wait().ok()) ++cancelled;
  }
  // Shutdown must surface as an error on the undispatched tail, and
  // Wait must not hang on any handle (reaching here proves it).
  EXPECT_GT(cancelled, 0);
}

TEST(FleetRuntimeTest, ReplaySmallTraceReportsSaneFleetMetrics) {
  auto fleet = MakeFleet(2, DispatchPolicy::kLeastLoaded,
                         /*stealing=*/true);
  ArrivalTrace trace;
  trace.classes.push_back({"light", 0.8, 2e5, 2, 8});
  trace.classes.push_back({"heavy", 0.2, 2e6, 2, 16});
  PoissonTraceOptions options;
  options.seed = 5;
  options.num_jobs = 30;
  options.mean_interarrival_s = 0.005;
  trace = MakePoissonTrace(trace.classes, options);

  auto report = fleet->Replay(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_jobs, 30);
  EXPECT_EQ(report->num_hosts, 2);
  EXPECT_EQ(report->failed_jobs, 0);
  EXPECT_GT(report->makespan_s, 0);
  EXPECT_GT(report->p50_completion_s, 0);
  EXPECT_LE(report->p50_completion_s, report->p95_completion_s);
  EXPECT_LE(report->p95_completion_s, report->p99_completion_s);
  EXPECT_LE(report->p50_queue_s, report->p50_completion_s);
  ASSERT_EQ(report->host_utilization.size(), 2u);
  for (double util : report->host_utilization) {
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
  }
  EXPECT_GT(report->mean_utilization, 0.0);
  EXPECT_FALSE(report->ToString().empty());
}

TEST(FleetRuntimeTest, SloAwareDispatchCarriesClassAndReportsByClass) {
  auto fleet = MakeFleet(2, DispatchPolicy::kSloAware,
                         /*stealing=*/false, /*cost_ns=*/2e5);
  // A directly submitted job carries its SLO class into the fleet
  // stats (the kSloAware dispatcher routes on it).
  FleetJobOptions inter_opts;
  inter_opts.job.slo = runtime::SloClass::kInteractive;
  inter_opts.job.priority = 2.0;
  FleetJobHandle probe = fleet->Submit(WorkGraph(10), inter_opts);
  ASSERT_TRUE(probe.Wait().ok());
  EXPECT_EQ(probe.Stats().slo, runtime::SloClass::kInteractive);
  EXPECT_GE(probe.Stats().host, 0);

  // Replay of a mixed-class trace: the report breaks latencies out per
  // class, tier order first, covering every replayed job exactly once.
  ArrivalTrace trace;
  TraceJobClass rpc;
  rpc.name = "rpc";
  rpc.weight = 1.0;
  rpc.cost_ns = 2e5;
  rpc.parallelism = 2;
  rpc.mean_elements = 6;
  rpc.slo = runtime::SloClass::kInteractive;
  TraceJobClass bulk;
  bulk.name = "bulk";
  bulk.weight = 1.0;
  bulk.cost_ns = 2e5;
  bulk.parallelism = 2;
  bulk.mean_elements = 12;  // slo defaults to kBatch
  PoissonTraceOptions options;
  options.seed = 7;
  options.num_jobs = 24;
  options.mean_interarrival_s = 0.005;
  trace = MakePoissonTrace({rpc, bulk}, options);

  auto report = fleet->Replay(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed_jobs, 0);
  ASSERT_FALSE(report->by_class.empty());
  int64_t jobs_covered = 0;
  for (const FleetClassLatency& c : report->by_class) {
    jobs_covered += c.num_jobs;
    EXPECT_GT(c.num_jobs, 0);
    EXPECT_LE(c.p50_completion_s, c.p95_completion_s);
    EXPECT_LE(c.p50_queue_s, c.p95_queue_s);
  }
  EXPECT_EQ(jobs_covered, report->num_jobs);
  if (report->by_class.size() == 2) {
    // Tier order: interactive before batch.
    EXPECT_EQ(report->by_class[0].slo, runtime::SloClass::kInteractive);
    EXPECT_EQ(report->by_class[1].slo, runtime::SloClass::kBatch);
    EXPECT_NE(report->ToString().find("interactive"), std::string::npos);
  }
}

TEST(FleetRuntimeTest, ReplayWithoutArrivalsDrainsBacklog) {
  auto fleet = MakeFleet(2, DispatchPolicy::kLeastLoaded,
                         /*stealing=*/true, /*cost_ns=*/1e5);
  ArrivalTrace trace;
  trace.classes.push_back({"c", 1.0, 1e5, 2, 8});
  PoissonTraceOptions options;
  options.seed = 3;
  options.num_jobs = 16;
  trace = MakePoissonTrace(trace.classes, options);
  TraceReplayOptions replay;
  replay.respect_arrivals = false;  // pure backlog drain
  auto report = fleet->Replay(trace, replay);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_jobs, 16);
  EXPECT_EQ(report->failed_jobs, 0);
}

}  // namespace
}  // namespace fleet
}  // namespace plumber
