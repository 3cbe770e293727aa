// Arrival traces: the front-door workload of the fleet serving runtime
// (paper §3's fleet view, made executable).
//
// A trace is a job-class table plus a time-ordered list of arrival
// events. Classes carry the modeled work shape (per-element UDF cost,
// configured map parallelism, mean job size) and the scheduling
// identity (SLO class, priority, latency target); events pick a class,
// a concrete element count, and optionally a locality pin. The
// TraceReplayDriver (src/fleet/trace_replay.h) turns each event into a
// range -> map program and submits it to a FleetRuntime at (scaled)
// arrival time.
//
// Three seeded generators cover the serving-paper workload shapes: a
// homogeneous-rate Poisson process, a bursty on/off process (burst
// arrivals at a fast rate, geometric burst lengths, long idle gaps),
// and a time-varying open-loop process (sinusoidal arrival rate,
// thinned non-homogeneous Poisson) for streaming/online-inference
// front doors. All draw job classes from the trace's weighted mixture
// and are deterministic for a fixed seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/job.h"

namespace plumber {
namespace fleet {

// One class of jobs: the work shape every event of this class shares.
struct TraceJobClass {
  std::string name;
  double weight = 1.0;        // mixture weight (unnormalized)
  double cost_ns = 1e6;       // modeled UDF cost per element
  int parallelism = 1;        // configured map parallelism
  double mean_elements = 16;  // mean job size (elements)
  // Scheduling identity every job of the class carries (JobOptions'
  // slo/priority): the replay driver forwards both so host executors
  // tier and weight the class accordingly.
  runtime::SloClass slo = runtime::SloClass::kBatch;
  double priority = 1.0;
  // Per-request completion deadline, seconds from submit; 0 = none.
  // The replay driver forwards it as JobOptions::latency_target_s so
  // executors order and shed by it, and FleetClassLatency reports the
  // class's attainment against it.
  double latency_target_s = 0;
};

// One job arrival.
struct ArrivalEvent {
  double arrival_s = 0;  // offset from trace start, nondecreasing
  int job_class = 0;     // index into ArrivalTrace::classes
  int64_t elements = 1;  // this job's concrete size
  int pinned_host = -1;  // locality preference; -1 = unpinned
};

struct ArrivalTrace {
  std::vector<TraceJobClass> classes;
  std::vector<ArrivalEvent> events;
};

// The four-class mixture calibrated against the paper's fleet
// quantiles (src/fleet/fleet_sim.cc), recast as serveable job classes:
// same weights, per-element costs spanning the well-configured ..
// severely-input-bound latency decades.
std::vector<TraceJobClass> CalibratedJobClasses();

struct PoissonTraceOptions {
  uint64_t seed = 1;
  int num_jobs = 1000;
  double mean_interarrival_s = 0.01;
  // Fraction of jobs carrying a locality pin, spread uniformly over
  // [0, num_hosts) pin targets.
  double pin_fraction = 0;
  int num_hosts = 1;
};

// Homogeneous Poisson arrivals over the weighted class mixture. Job
// sizes are exponential around each class's mean (min 1 element).
ArrivalTrace MakePoissonTrace(std::vector<TraceJobClass> classes,
                              const PoissonTraceOptions& options);

struct BurstyTraceOptions {
  uint64_t seed = 1;
  int num_jobs = 1000;
  // Interarrival inside a burst (fast) and between bursts (slow).
  double burst_interarrival_s = 0.001;
  double idle_gap_s = 0.25;
  // Mean jobs per burst (geometric).
  double mean_burst_len = 20;
  double pin_fraction = 0;
  int num_hosts = 1;
};

// On/off arrivals: geometric-length bursts at the fast rate separated
// by exponential idle gaps — the pattern that punishes load-oblivious
// dispatch hardest.
ArrivalTrace MakeBurstyTrace(std::vector<TraceJobClass> classes,
                             const BurstyTraceOptions& options);

struct TimeVaryingTraceOptions {
  uint64_t seed = 1;
  double duration_s = 10;
  // Mean arrival rate, jobs/sec, and the swing around it (in [0, 1]):
  // rate(t) = base_rate * (1 + amplitude * sin(2*pi * t / period_s)).
  double base_rate = 100;
  double amplitude = 0.8;
  double period_s = 2;
  double pin_fraction = 0;
  int num_hosts = 1;
};

// Open-loop arrivals whose rate varies over the trace window — the
// diurnal/spike shapes a streaming or online-inference front door
// sees. Implemented as a thinned non-homogeneous Poisson process
// (candidates at the peak rate, accepted with probability
// rate(t)/peak), so the instantaneous rate tracks the shape exactly
// in expectation.
ArrivalTrace MakeTimeVaryingTrace(std::vector<TraceJobClass> classes,
                                  const TimeVaryingTraceOptions& options);

}  // namespace fleet
}  // namespace plumber
