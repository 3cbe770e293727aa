#include "src/fleet/arrival_trace.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"

namespace plumber {
namespace fleet {
namespace {

int PickPin(Rng& rng, double pin_fraction, int num_hosts) {
  if (pin_fraction <= 0 || num_hosts <= 0) return -1;
  if (!rng.Bernoulli(pin_fraction)) return -1;
  return static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_hosts)));
}

// Draws one event's class and size from the mixture.
ArrivalEvent DrawEvent(Rng& rng, const std::vector<TraceJobClass>& classes,
                       const std::vector<double>& weights, double arrival_s,
                       double pin_fraction, int num_hosts) {
  ArrivalEvent event;
  event.arrival_s = arrival_s;
  event.job_class = static_cast<int>(rng.Categorical(weights));
  const double mean =
      std::max(1.0, classes[event.job_class].mean_elements);
  // Exponential sizes around the class mean: heavy enough tails that
  // dispatch policy matters, never zero-length.
  event.elements = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(rng.Exponential(1.0 / mean))));
  event.pinned_host = PickPin(rng, pin_fraction, num_hosts);
  return event;
}

std::vector<double> Weights(const std::vector<TraceJobClass>& classes) {
  std::vector<double> weights;
  weights.reserve(classes.size());
  for (const TraceJobClass& c : classes) weights.push_back(c.weight);
  return weights;
}

}  // namespace

std::vector<TraceJobClass> CalibratedJobClasses() {
  // Weights follow the fleet simulator's calibrated mixture
  // (src/fleet/fleet_sim.cc); per-element costs place each class in
  // its latency decade while keeping a full replay affordable.
  return {
      {"well_configured", 0.08, 2.0e4, 2, 16},
      {"mildly_stalled", 0.30, 1.0e5, 2, 16},
      {"software_bottleneck", 0.46, 1.0e6, 3, 16},
      {"severely_input_bound", 0.16, 8.0e6, 4, 16},
  };
}

ArrivalTrace MakePoissonTrace(std::vector<TraceJobClass> classes,
                              const PoissonTraceOptions& options) {
  ArrivalTrace trace;
  trace.classes = std::move(classes);
  Rng rng(SplitMix64(options.seed));
  const std::vector<double> weights = Weights(trace.classes);
  double now = 0;
  const double rate = 1.0 / std::max(1e-9, options.mean_interarrival_s);
  for (int i = 0; i < options.num_jobs; ++i) {
    now += rng.Exponential(rate);
    trace.events.push_back(DrawEvent(rng, trace.classes, weights, now,
                                     options.pin_fraction,
                                     options.num_hosts));
  }
  return trace;
}

ArrivalTrace MakeBurstyTrace(std::vector<TraceJobClass> classes,
                             const BurstyTraceOptions& options) {
  ArrivalTrace trace;
  trace.classes = std::move(classes);
  Rng rng(SplitMix64(options.seed ^ 0x9e3779b97f4a7c15ULL));
  const std::vector<double> weights = Weights(trace.classes);
  const double burst_rate =
      1.0 / std::max(1e-9, options.burst_interarrival_s);
  const double gap_rate = 1.0 / std::max(1e-9, options.idle_gap_s);
  // Geometric burst length with the given mean: continue probability
  // p = 1 - 1/mean.
  const double p_continue =
      1.0 - 1.0 / std::max(1.0, options.mean_burst_len);
  double now = 0;
  int emitted = 0;
  while (emitted < options.num_jobs) {
    now += rng.Exponential(gap_rate);  // idle gap before the burst
    do {
      trace.events.push_back(DrawEvent(rng, trace.classes, weights, now,
                                       options.pin_fraction,
                                       options.num_hosts));
      ++emitted;
      now += rng.Exponential(burst_rate);
    } while (emitted < options.num_jobs && rng.Bernoulli(p_continue));
  }
  return trace;
}

ArrivalTrace MakeTimeVaryingTrace(std::vector<TraceJobClass> classes,
                                  const TimeVaryingTraceOptions& options) {
  ArrivalTrace trace;
  trace.classes = std::move(classes);
  Rng rng(SplitMix64(options.seed ^ 0xd1b54a32d192ed03ULL));
  const std::vector<double> weights = Weights(trace.classes);
  const double base = std::max(1e-9, options.base_rate);
  const double amplitude = std::clamp(options.amplitude, 0.0, 1.0);
  const double duration = std::max(1e-9, options.duration_s);
  const double period = std::max(1e-9, options.period_s);
  const auto rate_at = [&](double t) {
    return base * (1.0 + amplitude * std::sin(2.0 * M_PI * t / period));
  };
  // Thinning: homogeneous candidates at the peak rate, each kept with
  // probability rate(t)/peak — the standard exact sampler for a
  // non-homogeneous Poisson process with a bounded rate.
  const double peak = base * (1.0 + amplitude);
  double now = 0;
  for (;;) {
    now += rng.Exponential(peak);
    if (now >= duration) break;
    if (!rng.Bernoulli(rate_at(now) / peak)) continue;
    trace.events.push_back(DrawEvent(rng, trace.classes, weights, now,
                                     options.pin_fraction,
                                     options.num_hosts));
  }
  return trace;
}

}  // namespace fleet
}  // namespace plumber
