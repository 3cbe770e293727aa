// Streaming front-door tests: the time-varying (non-homogeneous
// Poisson) trace generator, the latency_target_s class field's
// serialize/parse round trip, and open-loop replay scoring per-class
// deadline attainment in the FleetReport.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/api/fleet_session.h"
#include "src/fleet/arrival_trace.h"
#include "src/pipeline/ops.h"

namespace plumber {
namespace fleet {
namespace {

TEST(TimeVaryingTraceTest, SeedDeterministicAndWithinWindow) {
  TimeVaryingTraceOptions options;
  options.seed = 21;
  options.duration_s = 4;
  options.base_rate = 80;
  options.amplitude = 0.6;
  options.period_s = 2;
  options.pin_fraction = 0.25;
  options.num_hosts = 3;
  const ArrivalTrace a =
      MakeTimeVaryingTrace(CalibratedJobClasses(), options);
  const ArrivalTrace b =
      MakeTimeVaryingTrace(CalibratedJobClasses(), options);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  options.seed = 22;
  const ArrivalTrace c =
      MakeTimeVaryingTrace(CalibratedJobClasses(), options);
  EXPECT_NE(a.Serialize(), c.Serialize());

  ASSERT_FALSE(a.events.empty());
  double last = 0;
  int pinned = 0;
  for (const ArrivalEvent& e : a.events) {
    EXPECT_GE(e.arrival_s, last);
    last = e.arrival_s;
    EXPECT_LT(e.arrival_s, options.duration_s);
    EXPECT_GE(e.elements, 1);
    if (e.pinned_host >= 0) {
      ++pinned;
      EXPECT_LT(e.pinned_host, options.num_hosts);
    }
  }
  EXPECT_GT(pinned, 0);
  // ~80 jobs/sec over 4s: a generous determinism-safe band.
  EXPECT_GT(a.events.size(), 150u);
  EXPECT_LT(a.events.size(), 650u);
}

TEST(TimeVaryingTraceTest, SinusoidWithFullPeriodPeaksEarly) {
  // With period == duration the rate is above its mean for the first
  // half of the window and below it for the second, so more arrivals
  // land early.
  TimeVaryingTraceOptions options;
  options.seed = 5;
  options.duration_s = 4;
  options.base_rate = 100;
  options.amplitude = 0.8;
  options.period_s = options.duration_s;
  const ArrivalTrace sine =
      MakeTimeVaryingTrace(CalibratedJobClasses(), options);
  int sine_early = 0, sine_late = 0;
  for (const ArrivalEvent& e : sine.events) {
    (e.arrival_s < options.duration_s / 2 ? sine_early : sine_late)++;
  }
  EXPECT_GT(sine_early, sine_late);
}

TEST(StreamingTraceTest, LatencyTargetRoundTrips) {
  ArrivalTrace trace;
  TraceJobClass rpc;
  rpc.name = "rpc";
  rpc.weight = 1.0;
  rpc.cost_ns = 2e5;
  rpc.parallelism = 2;
  rpc.mean_elements = 8;
  rpc.slo = runtime::SloClass::kInteractive;
  rpc.latency_target_s = 0.25;
  trace.classes.push_back(rpc);
  trace.events.push_back({0.0, 0, 4, -1});
  const std::string text = trace.Serialize();
  auto parsed = ArrivalTrace::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), text);
  EXPECT_EQ(parsed->classes[0].latency_target_s, 0.25);

  // A 7-field class line (no target) and a negative target both reject
  // with the offending line number.
  for (const char* bad :
       {"plumber_arrival_trace v1\nclass c 1 1000 1 4 interactive 2\n",
        "plumber_arrival_trace v1\nclass c 1 1000 1 4 batch 1 -0.5\n"}) {
    auto rejected = ArrivalTrace::Parse(bad);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_NE(rejected.status().message().find("line 2"), std::string::npos)
        << rejected.status().ToString();
  }
}

TEST(StreamingTraceTest, ReplayScoresPerClassAttainment) {
  FleetSessionOptions options;
  for (int h = 0; h < 2; ++h) {
    MachineSpec machine;
    machine.num_cores = 4;
    machine.name = "host" + std::to_string(h);
    options.hosts.push_back(machine);
  }
  options.fleet.policy = DispatchPolicy::kSloAware;
  FleetSession fleet(std::move(options));
  UdfSpec work;
  work.name = "work";
  work.cost_ns_per_element = 2e5;
  ASSERT_TRUE(fleet.RegisterUdf(work).ok());

  // Two SLO classes: a generously-deadlined interactive class (every
  // job attains) and a hopeless batch class whose target is far below
  // even a single job's modeled runtime.
  ArrivalTrace trace;
  TraceJobClass easy;
  easy.name = "easy";
  easy.cost_ns = 2e5;
  easy.parallelism = 2;
  easy.slo = runtime::SloClass::kInteractive;
  easy.latency_target_s = 30;
  trace.classes.push_back(easy);
  TraceJobClass hopeless;
  hopeless.name = "hopeless";
  hopeless.cost_ns = 2e5;
  hopeless.parallelism = 2;
  hopeless.latency_target_s = 1e-4;  // kBatch default
  trace.classes.push_back(hopeless);
  for (int i = 0; i < 12; ++i) {
    trace.events.push_back({i * 0.002, i % 2, 8, -1});
  }

  auto report = fleet.Replay(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->host_network_utilization.size(), 2u);
  for (double u : report->host_network_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  bool saw_easy = false, saw_hopeless = false;
  for (const FleetClassLatency& c : report->by_class) {
    if (c.slo == runtime::SloClass::kInteractive) {
      saw_easy = true;
      EXPECT_EQ(c.target_jobs, 6);
      EXPECT_EQ(c.attainment, 1.0);
      EXPECT_EQ(c.latency_target_s, 30);
    } else if (c.slo == runtime::SloClass::kBatch) {
      saw_hopeless = true;
      // Every job either missed its 100us target or was shed; either
      // way the class attains nothing (shed jobs stay in the
      // denominator).
      EXPECT_EQ(c.target_jobs, 6);
      EXPECT_EQ(c.attainment, 0.0);
    }
  }
  EXPECT_TRUE(saw_easy);
  EXPECT_TRUE(saw_hopeless);
  EXPECT_NE(report->ToString().find("attainment"), std::string::npos);
}

}  // namespace
}  // namespace fleet
}  // namespace plumber
