// Arrival-trace format and generator tests: serialize/parse round
// trip, malformed-line rejection with line numbers, and seeded-RNG
// determinism of the Poisson and bursty processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/fleet/arrival_trace.h"

namespace plumber {
namespace fleet {
namespace {

ArrivalTrace SmallTrace() {
  ArrivalTrace trace;
  trace.classes.push_back({"light", 0.7, 5.5e4, 2, 12.25});
  trace.classes.push_back({"heavy", 0.3, 3.0e6, 4, 40});
  trace.events.push_back({0.0, 0, 10, -1});
  trace.events.push_back({0.125, 1, 55, 2});
  trace.events.push_back({1.5, 0, 1, 0});
  return trace;
}

TEST(ArrivalTraceTest, SerializeParseRoundTrip) {
  const ArrivalTrace trace = SmallTrace();
  const std::string text = trace.Serialize();
  auto parsed = ArrivalTrace::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Full-precision doubles make the round trip an exact identity.
  EXPECT_EQ(parsed->Serialize(), text);
  ASSERT_EQ(parsed->classes.size(), 2u);
  EXPECT_EQ(parsed->classes[1].name, "heavy");
  EXPECT_EQ(parsed->classes[1].parallelism, 4);
  ASSERT_EQ(parsed->events.size(), 3u);
  EXPECT_EQ(parsed->events[1].elements, 55);
  EXPECT_EQ(parsed->events[1].pinned_host, 2);
  EXPECT_EQ(parsed->events[0].pinned_host, -1);
}

TEST(ArrivalTraceTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "plumber_arrival_trace v1\n"
      "# a comment\n"
      "\n"
      "class c 1 1000 1 4 batch 1 0  # trailing comment\n"
      "event 0.5 0 3 -1\n";
  auto parsed = ArrivalTrace::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->classes.size(), 1u);
  EXPECT_EQ(parsed->events.size(), 1u);
}

TEST(ArrivalTraceTest, MalformedLinesRejectWithLineNumbers) {
  const auto expect_error_at = [](const std::string& text, int line) {
    auto parsed = ArrivalTrace::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().message().find(
                  "line " + std::to_string(line)),
              std::string::npos)
        << parsed.status().ToString();
  };
  const std::string head = "plumber_arrival_trace v1\n";
  const std::string klass = "class c 1 1000 1 4 batch 1 0\n";
  // Missing header.
  expect_error_at(klass, 1);
  // Wrong field count on line 3.
  expect_error_at(head + klass + "event 0.5 0\n", 3);
  // Unparseable number on line 2.
  expect_error_at(head + "class c 1 xyz 1 4 batch 1 0\n", 2);
  // Class index out of range on line 3.
  expect_error_at(head + klass + "event 0.5 7 3 -1\n", 3);
  // Arrivals must be nondecreasing (line 4).
  expect_error_at(head + klass + "event 1.0 0 3 -1\nevent 0.5 0 3 -1\n", 4);
  // Unknown directive on line 2.
  expect_error_at("plumber_arrival_trace v1\nbogus 1 2 3\n", 2);
  // Empty input.
  EXPECT_FALSE(ArrivalTrace::Parse("").ok());
}

TEST(ArrivalTraceTest, SloAndPriorityRoundTrip) {
  ArrivalTrace trace;
  TraceJobClass rpc;
  rpc.name = "rpc";
  rpc.weight = 0.5;
  rpc.cost_ns = 2e5;
  rpc.parallelism = 4;
  rpc.mean_elements = 8;
  rpc.slo = runtime::SloClass::kInteractive;
  rpc.priority = 2.5;
  trace.classes.push_back(rpc);
  trace.classes.push_back({"bulk", 0.5, 1e6, 2, 32});  // class defaults
  trace.events.push_back({0.0, 0, 4, -1});
  const std::string text = trace.Serialize();
  // Serialize always writes the 8-field class line (slo by name).
  EXPECT_NE(text.find("interactive"), std::string::npos);
  EXPECT_NE(text.find("batch"), std::string::npos);
  auto parsed = ArrivalTrace::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), text);
  EXPECT_EQ(parsed->classes[0].slo, runtime::SloClass::kInteractive);
  EXPECT_EQ(parsed->classes[0].priority, 2.5);
  EXPECT_EQ(parsed->classes[1].slo, runtime::SloClass::kBatch);
  EXPECT_EQ(parsed->classes[1].priority, 1.0);

  // Pre-SLO 5-field and pre-deadline 7-field class lines, an unknown
  // SLO token, and a non-positive priority all reject with the
  // offending line number.
  for (const char* bad :
       {"plumber_arrival_trace v1\nclass c 1 1000 1 4\n",
        "plumber_arrival_trace v1\nclass c 1 1000 1 4 batch 1\n",
        "plumber_arrival_trace v1\nclass c 1 1000 1 4 turbo 1 0\n",
        "plumber_arrival_trace v1\nclass c 1 1000 1 4 batch 0 0\n"}) {
    auto rejected = ArrivalTrace::Parse(bad);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_NE(rejected.status().message().find("line 2"), std::string::npos)
        << rejected.status().ToString();
  }
}

TEST(ArrivalTraceTest, PoissonTraceIsSeedDeterministic) {
  PoissonTraceOptions options;
  options.seed = 99;
  options.num_jobs = 500;
  options.pin_fraction = 0.25;
  options.num_hosts = 4;
  const ArrivalTrace a = MakePoissonTrace(CalibratedJobClasses(), options);
  const ArrivalTrace b = MakePoissonTrace(CalibratedJobClasses(), options);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  options.seed = 100;
  const ArrivalTrace c = MakePoissonTrace(CalibratedJobClasses(), options);
  EXPECT_NE(a.Serialize(), c.Serialize());

  ASSERT_EQ(a.events.size(), 500u);
  int pinned = 0;
  double last = 0;
  for (const ArrivalEvent& e : a.events) {
    EXPECT_GE(e.arrival_s, last);
    last = e.arrival_s;
    EXPECT_GE(e.elements, 1);
    if (e.pinned_host >= 0) {
      ++pinned;
      EXPECT_LT(e.pinned_host, 4);
    }
  }
  // ~25% of 500 jobs pinned; generous determinism-safe band.
  EXPECT_GT(pinned, 60);
  EXPECT_LT(pinned, 200);
}

TEST(ArrivalTraceTest, BurstyTraceIsSeedDeterministicAndBursty) {
  BurstyTraceOptions options;
  options.seed = 7;
  options.num_jobs = 400;
  options.burst_interarrival_s = 0.001;
  options.idle_gap_s = 0.5;
  options.mean_burst_len = 25;
  const ArrivalTrace a = MakeBurstyTrace(CalibratedJobClasses(), options);
  const ArrivalTrace b = MakeBurstyTrace(CalibratedJobClasses(), options);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  ASSERT_EQ(a.events.size(), 400u);

  // On/off structure: the biggest interarrival gap (an idle period)
  // dwarfs the median (inside a burst).
  std::vector<double> gaps;
  for (size_t i = 1; i < a.events.size(); ++i) {
    gaps.push_back(a.events[i].arrival_s - a.events[i - 1].arrival_s);
  }
  std::sort(gaps.begin(), gaps.end());
  const double median = gaps[gaps.size() / 2];
  const double max_gap = gaps.back();
  EXPECT_GT(max_gap, 20 * median);
}

TEST(ArrivalTraceTest, CalibratedClassesMatchFleetMixture) {
  const std::vector<TraceJobClass> classes = CalibratedJobClasses();
  ASSERT_EQ(classes.size(), 4u);
  double total_weight = 0;
  for (const TraceJobClass& c : classes) total_weight += c.weight;
  EXPECT_NEAR(total_weight, 1.0, 1e-9);
  // Costs span the fleet's latency decades in order.
  for (size_t i = 1; i < classes.size(); ++i) {
    EXPECT_GT(classes[i].cost_ns, classes[i - 1].cost_ns);
  }
  // The dominant class is the software bottleneck (paper: 46%).
  EXPECT_EQ(classes[2].name, "software_bottleneck");
  EXPECT_NEAR(classes[2].weight, 0.46, 1e-9);
}

}  // namespace
}  // namespace fleet
}  // namespace plumber
