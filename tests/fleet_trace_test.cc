// Arrival-trace generator tests: seeded-RNG determinism of the Poisson
// and bursty processes, and the calibrated class mixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/fleet/arrival_trace.h"
#include "tests/test_util.h"

namespace plumber {
namespace fleet {
namespace {

using testing_util::SameEvents;

TEST(ArrivalTraceTest, PoissonTraceIsSeedDeterministic) {
  PoissonTraceOptions options;
  options.seed = 99;
  options.num_jobs = 500;
  options.pin_fraction = 0.25;
  options.num_hosts = 4;
  const ArrivalTrace a = MakePoissonTrace(CalibratedJobClasses(), options);
  const ArrivalTrace b = MakePoissonTrace(CalibratedJobClasses(), options);
  EXPECT_TRUE(SameEvents(a, b));
  options.seed = 100;
  const ArrivalTrace c = MakePoissonTrace(CalibratedJobClasses(), options);
  EXPECT_FALSE(SameEvents(a, c));

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
  EXPECT_TRUE(SameEvents(a, b));
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
