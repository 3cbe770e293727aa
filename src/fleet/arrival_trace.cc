#include "src/fleet/arrival_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/util/rng.h"

namespace plumber {
namespace fleet {
namespace {

constexpr char kHeader[] = "plumber_arrival_trace v1";

std::string FormatDouble(double v) {
  char buf[64];
  // %.17g round-trips every finite double, keeping Serialize/Parse an
  // exact identity for generated traces.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status LineError(int line, const std::string& what) {
  return InvalidArgumentError("trace line " + std::to_string(line) + ": " +
                              what);
}

// Splits on runs of spaces/tabs.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) tokens.push_back(std::move(token));
  return tokens;
}

bool ParseDoubleToken(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size() && !token.empty();
}

bool ParseIntToken(const std::string& token, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  return end == token.c_str() + token.size() && !token.empty();
}

bool ParseSloToken(const std::string& token, runtime::SloClass* out) {
  for (int i = 0; i < runtime::kNumSloClasses; ++i) {
    const auto slo = static_cast<runtime::SloClass>(i);
    if (token == runtime::SloClassName(slo)) {
      *out = slo;
      return true;
    }
  }
  return false;
}

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

std::string ArrivalTrace::Serialize() const {
  std::string out = kHeader;
  out += '\n';
  for (const TraceJobClass& c : classes) {
    out += "class " + c.name + ' ' + FormatDouble(c.weight) + ' ' +
           FormatDouble(c.cost_ns) + ' ' + std::to_string(c.parallelism) +
           ' ' + FormatDouble(c.mean_elements) + ' ' +
           runtime::SloClassName(c.slo) + ' ' + FormatDouble(c.priority) +
           ' ' + FormatDouble(c.latency_target_s) + '\n';
  }
  for (const ArrivalEvent& e : events) {
    out += "event " + FormatDouble(e.arrival_s) + ' ' +
           std::to_string(e.job_class) + ' ' + std::to_string(e.elements) +
           ' ' + std::to_string(e.pinned_host) + '\n';
  }
  return out;
}

StatusOr<ArrivalTrace> ArrivalTrace::Parse(const std::string& text) {
  ArrivalTrace trace;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  double last_arrival = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    if (!saw_header) {
      if (line.find(kHeader) != 0) {
        return LineError(line_no,
                         "expected header '" + std::string(kHeader) + "'");
      }
      saw_header = true;
      continue;
    }
    if (tokens[0] == "class") {
      if (tokens.size() != 9) {
        return LineError(line_no, "class takes 8 fields, got " +
                                      std::to_string(tokens.size() - 1));
      }
      TraceJobClass c;
      c.name = tokens[1];
      int64_t parallelism = 0;
      if (!ParseDoubleToken(tokens[2], &c.weight) || c.weight < 0) {
        return LineError(line_no, "bad class weight '" + tokens[2] + "'");
      }
      if (!ParseDoubleToken(tokens[3], &c.cost_ns) || c.cost_ns < 0) {
        return LineError(line_no, "bad class cost_ns '" + tokens[3] + "'");
      }
      if (!ParseIntToken(tokens[4], &parallelism) || parallelism < 1) {
        return LineError(line_no,
                         "bad class parallelism '" + tokens[4] + "'");
      }
      if (!ParseDoubleToken(tokens[5], &c.mean_elements) ||
          c.mean_elements < 1) {
        return LineError(line_no,
                         "bad class mean_elements '" + tokens[5] + "'");
      }
      c.parallelism = static_cast<int>(parallelism);
      if (!ParseSloToken(tokens[6], &c.slo)) {
        return LineError(line_no, "bad class slo '" + tokens[6] +
                                      "' (want interactive|batch|"
                                      "best_effort)");
      }
      if (!ParseDoubleToken(tokens[7], &c.priority) || c.priority <= 0) {
        return LineError(line_no, "bad class priority '" + tokens[7] + "'");
      }
      if (!ParseDoubleToken(tokens[8], &c.latency_target_s) ||
          c.latency_target_s < 0) {
        return LineError(line_no,
                         "bad class latency_target_s '" + tokens[8] + "'");
      }
      trace.classes.push_back(std::move(c));
      continue;
    }
    if (tokens[0] == "event") {
      if (tokens.size() != 5) {
        return LineError(line_no, "event takes 4 fields, got " +
                                      std::to_string(tokens.size() - 1));
      }
      ArrivalEvent e;
      int64_t job_class = 0, pinned = 0;
      if (!ParseDoubleToken(tokens[1], &e.arrival_s) || e.arrival_s < 0) {
        return LineError(line_no, "bad arrival_s '" + tokens[1] + "'");
      }
      if (!ParseIntToken(tokens[2], &job_class) || job_class < 0 ||
          job_class >= static_cast<int64_t>(trace.classes.size())) {
        return LineError(
            line_no, "class index '" + tokens[2] + "' out of range (have " +
                         std::to_string(trace.classes.size()) + " classes)");
      }
      if (!ParseIntToken(tokens[3], &e.elements) || e.elements < 1) {
        return LineError(line_no, "bad elements '" + tokens[3] + "'");
      }
      if (!ParseIntToken(tokens[4], &pinned) || pinned < -1) {
        return LineError(line_no, "bad pinned_host '" + tokens[4] + "'");
      }
      if (e.arrival_s < last_arrival) {
        return LineError(line_no, "arrivals must be nondecreasing");
      }
      last_arrival = e.arrival_s;
      e.job_class = static_cast<int>(job_class);
      e.pinned_host = static_cast<int>(pinned);
      trace.events.push_back(e);
      continue;
    }
    return LineError(line_no, "unknown directive '" + tokens[0] + "'");
  }
  if (!saw_header) return InvalidArgumentError("trace is empty (no header)");
  return trace;
}

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
