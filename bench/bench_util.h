// Shared harness code for the figure-reproduction benchmarks.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/plumber.h"
#include "src/tuners/autotune.h"
#include "src/tuners/tuner.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workloads/workloads.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace plumber {
namespace bench {

// Restricts the whole process to the first `n` CPUs for its lifetime,
// then restores the previous mask. This is how the paper's
// MultiBoxSSD(48) appendix run works: half the machine's cores are
// disabled for scheduling, so over-allocating tuners oversubscribe
// while resource-aware allocation does not.
class ScopedCpuAffinity {
 public:
  explicit ScopedCpuAffinity(int n) {
#ifdef __linux__
    if (sched_getaffinity(0, sizeof(previous_), &previous_) != 0) return;
    saved_ = true;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (int cpu = 0; cpu < n && cpu < CPU_SETSIZE; ++cpu) {
      CPU_SET(cpu, &mask);
    }
    applied_ = sched_setaffinity(0, sizeof(mask), &mask) == 0;
#else
    (void)n;
#endif
  }
  ~ScopedCpuAffinity() {
#ifdef __linux__
    if (saved_) sched_setaffinity(0, sizeof(previous_), &previous_);
#endif
  }
  bool applied() const { return applied_; }

  ScopedCpuAffinity(const ScopedCpuAffinity&) = delete;
  ScopedCpuAffinity& operator=(const ScopedCpuAffinity&) = delete;

 private:
#ifdef __linux__
  cpu_set_t previous_;
#endif
  bool saved_ = false;
  bool applied_ = false;
};

// One measured optimization step (the x-axis of Figs. 6-9/13).
struct StepPoint {
  int step = 0;
  double observed_rate = 0;       // minibatches/sec
  double lp_predicted = 0;        // Plumber LP upper bound
  double local_predicted = 0;     // "local" allocator estimate
  double autotune_predicted = 0;  // AUTOTUNE's unbounded estimate
  std::string action;             // node the tuner touched
};

struct StepSeriesOptions {
  int steps = 20;
  double measure_seconds = 0.12;
  uint64_t seed = 1;
};

// Runs the sequential-tuning protocol of §5.1: start from the given
// configuration; each step, measure + trace the current pipeline, record
// predictions, then let the tuner pick the next configuration. The
// session's machine is the machine being tuned for.
inline std::vector<StepPoint> RunStepTuning(Session& session, GraphDef graph,
                                            StepTuner* tuner,
                                            const StepSeriesOptions& options) {
  std::vector<StepPoint> series;
  Rng rng(options.seed);
  for (int step = 0; step < options.steps; ++step) {
    auto model_or =
        session.FromGraph(graph).Diagnose(options.measure_seconds);
    if (!model_or.ok()) break;
    const PipelineModel& model = *model_or;

    StepPoint point;
    point.step = step;
    point.observed_rate = model.observed_rate();
    point.lp_predicted = PlanAllocation(model).predicted_rate;
    point.local_predicted = LocalEstimateMaxRate(model);
    point.autotune_predicted = AutotuneEstimateRate(model);
    series.push_back(point);

    if (tuner != nullptr) {
      TunerContext ctx;
      ctx.model = &model;
      ctx.machine = session.machine();
      ctx.rng = &rng;
      auto next = tuner->Step(graph, ctx);
      if (!next.ok()) break;
      graph = std::move(next).value();
    }
  }
  return series;
}

// Measures the steady-state rate of a fixed configuration through the
// unified API. The warmup window runs on the same iterator tree (so
// caches fill) but is excluded from the measurement.
inline double MeasureRate(Session& session, const GraphDef& graph,
                          double seconds, double model_step_seconds = 0,
                          double warmup_seconds = 0) {
  RunOptions window;
  window.max_seconds = seconds;
  window.model_step_seconds = model_step_seconds;
  window.warmup_seconds = warmup_seconds;
  const auto report = session.FromGraph(graph).Run(window);
  if (!report.ok()) {
    std::fprintf(stderr, "run error: %s\n",
                 report.status().ToString().c_str());
    return 0;
  }
  return report->batches_per_second;
}

inline double MeanRate(const std::vector<StepPoint>& series, int from,
                       int to) {
  RunningStat stat;
  for (const auto& p : series) {
    if (p.step >= from && p.step < to) stat.Add(p.observed_rate);
  }
  return stat.mean();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

}  // namespace bench
}  // namespace plumber
