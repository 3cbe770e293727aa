// Multi-tenant executor bench: 4 heterogeneous jobs sharing one 8-core
// modeled machine, submitted concurrently through Session::Submit vs
// the same jobs run back-to-back with the blocking Flow::Run.
//
// Reports aggregate items/s for both modes and the per-job completion
// latency distribution (p50/p95 of submit -> finished) under
// concurrency. Expected shape: each job's configured demand (2-4
// workers) underuses the 8 cores alone, so overlapping the four jobs
// under the maximin arbiter lifts aggregate throughput well above the
// serialized baseline (the acceptance bar is >= 1.3x; modeled UDF cost
// runs as a timed wait, which makes the ratio host-independent).
//
// A second scenario exercises SLO-aware scheduling: three long batch
// jobs share the machine with a closed-loop stream of short
// interactive jobs, once with slo_preemption off (flat fair share) and
// once on (interactive tier parks batch pools to their floor). The
// bench self-checks the headline property of docs/scheduling.md —
// interactive p95 completion improves >= 2x under preemption while
// batch throughput gives up <= 15% — and reports the preemption-on
// arm's metrics for the regression gate
// (multi_tenant.interactive_p95_latency_s gates on increase,
// multi_tenant.batch_items_per_s on drops).
//
// BENCH_METRIC lines (higher is better unless suffixed _latency_s) are
// gated by scripts/check_bench_regression.py against bench/baselines/.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/busy_work.h"
#include "src/util/cpu_timer.h"

using namespace plumber;
using namespace plumber::bench;

namespace {

struct JobSpec {
  const char* name;
  const char* udf;
  double cost_ns;      // modeled per-element cost
  int parallelism;     // configured map workers
  int64_t elements;    // finite job size
};

// Heterogeneous mix: two heavy decoders, a medium augmenter, a light
// parser. Total configured demand = 10 workers on 8 cores, so the
// arbiter has real work under concurrency.
const JobSpec kJobs[] = {
    {"decode_a", "udf_heavy", 2.0e6, 3, 900},
    {"decode_b", "udf_heavy", 2.0e6, 3, 900},
    {"augment", "udf_medium", 1.0e6, 2, 700},
    {"parse", "udf_light", 0.5e6, 2, 900},
};

Session MakeSession() {
  SessionOptions so;
  so.machine.num_cores = 8;
  Session session(std::move(so));
  UdfSpec heavy;
  heavy.name = "udf_heavy";
  heavy.cost_ns_per_element = 2.0e6;
  (void)session.RegisterUdf(heavy);
  UdfSpec medium;
  medium.name = "udf_medium";
  medium.cost_ns_per_element = 1.0e6;
  (void)session.RegisterUdf(medium);
  UdfSpec light;
  light.name = "udf_light";
  light.cost_ns_per_element = 0.5e6;
  (void)session.RegisterUdf(light);
  return session;
}

Flow MakeFlow(Session& session, const JobSpec& spec) {
  return session.Range(spec.elements)
      .Map(spec.udf, spec.parallelism)
      .Named(std::string(spec.name) + "_map");
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[idx];
}

// -- Mixed-class scenario -------------------------------------------
// Three infinite batch jobs (4-worker knob, 2ms elements) plus a
// closed-loop stream of interactive jobs (96 elements x 5ms, 8-worker
// knob) on 8 modeled cores. Flat fair share splits the machine four
// ways (~2 workers for the interactive job -> ~240ms); preemption
// grants the interactive tier everything but the three batch floors
// (5 workers -> ~96ms) while each batch job keeps its floor worker.

struct MixedClassResult {
  double interactive_p50_s = 0;
  double interactive_p95_s = 0;
  double batch_items_per_s = 0;
};

bool RunMixedClassArm(bool preemption, MixedClassResult* out) {
  constexpr int kBatchJobs = 3;
  constexpr int kInteractiveJobs = 10;
  constexpr int64_t kInteractiveElements = 120;

  SessionOptions so;
  so.machine.num_cores = 8;
  so.executor.slo_preemption = preemption;
  Session session(std::move(so));
  UdfSpec batch_udf;
  batch_udf.name = "udf_batch";
  batch_udf.cost_ns_per_element = 2.0e6;
  (void)session.RegisterUdf(batch_udf);
  UdfSpec inter_udf;
  inter_udf.name = "udf_inter";
  inter_udf.cost_ns_per_element = 5.0e6;
  (void)session.RegisterUdf(inter_udf);

  RunOptions batch_window;
  batch_window.max_seconds = 120;  // failsafe; the bench cancels
  std::vector<JobHandle> batch_jobs;
  for (int i = 0; i < kBatchJobs; ++i) {
    JobOptions jopts;
    jopts.run = batch_window;
    jopts.name = "batch_" + std::to_string(i);
    // SloClass::kBatch is the default.
    batch_jobs.push_back(session.Submit(
        session.Range(1 << 30).Map("udf_batch", 4).Named("bmap"), jopts));
  }
  // Let every batch job reach steady state before the first arrival.
  const auto warm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (JobHandle& job : batch_jobs) {
    while (job.Progress().batches == 0 &&
           std::chrono::steady_clock::now() < warm_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (job.Progress().batches == 0) {
      std::printf("mixed-class: batch job never started\n");
      return false;
    }
  }

  int64_t batch_elements_start = 0;
  for (JobHandle& job : batch_jobs) {
    batch_elements_start += job.Progress().elements;
  }
  const int64_t t0 = WallNanos();

  // Open-loop arrivals: one interactive job every kPeriod, long enough
  // for either arm to finish each job before the next arrives. The
  // idle tail of each period is when preemption pays twice — the
  // interactive job leaves sooner, so the batch pools run restored
  // (not parked) for most of the window.
  constexpr auto kPeriod = std::chrono::milliseconds(800);
  std::vector<double> interactive_completion_s;
  RunOptions inter_window;
  inter_window.max_seconds = 60;
  const auto loop_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kInteractiveJobs; ++i) {
    std::this_thread::sleep_until(loop_start + i * kPeriod);
    JobOptions jopts;
    jopts.run = inter_window;
    jopts.name = "inter_" + std::to_string(i);
    jopts.slo = SloClass::kInteractive;
    jopts.latency_target_s = 0.2;
    JobHandle job = session.Submit(
        session.Range(kInteractiveElements).Map("udf_inter", 8).Named("imap"),
        jopts);
    const auto report = job.Wait();
    if (!report.ok() || !report->reached_end) {
      std::printf("mixed-class: interactive job failed: %s\n",
                  report.ok() ? "did not finish"
                              : report.status().ToString().c_str());
      return false;
    }
    interactive_completion_s.push_back(report->queue_seconds +
                                       report->wall_seconds);
  }

  const double window_s = (WallNanos() - t0) * 1e-9;
  int64_t batch_elements_end = 0;
  for (JobHandle& job : batch_jobs) {
    batch_elements_end += job.Progress().elements;
  }
  for (JobHandle& job : batch_jobs) job.Cancel();
  for (JobHandle& job : batch_jobs) (void)job.Wait();

  out->interactive_p50_s = Percentile(interactive_completion_s, 0.50);
  out->interactive_p95_s = Percentile(interactive_completion_s, 0.95);
  out->batch_items_per_s =
      (batch_elements_end - batch_elements_start) / window_s;
  return true;
}

}  // namespace

int main() {
  std::printf("BENCH_METRIC host_spin_rounds_per_ns %.6f\n",
              SpinRoundsPerNano());
  PrintHeader(
      "Multi-tenant executor: 4 concurrent jobs vs serialized (8 cores)");

  RunOptions window;  // finite jobs: run each to the end
  window.max_seconds = 120;
  int64_t total_elements = 0;
  for (const JobSpec& spec : kJobs) total_elements += spec.elements;

  // -- Serialized baseline: blocking Run, back to back. A job's
  // completion latency includes waiting out every job ahead of it —
  // the run-to-completion cost Salus-style sharing removes.
  double serial_seconds = 0;
  std::vector<double> serial_completion_seconds;
  {
    Session session = MakeSession();
    const int64_t t0 = WallNanos();
    for (const JobSpec& spec : kJobs) {
      const auto report = MakeFlow(session, spec).Run(window);
      if (!report.ok() || !report->reached_end) {
        std::printf("serial job %s failed: %s\n", spec.name,
                    report.ok() ? "did not finish"
                                : report.status().ToString().c_str());
        return 1;
      }
      serial_completion_seconds.push_back((WallNanos() - t0) * 1e-9);
    }
    serial_seconds = (WallNanos() - t0) * 1e-9;
  }
  const double serial_rate = total_elements / serial_seconds;

  // -- Concurrent: submit all four, wait for all.
  double concurrent_seconds = 0;
  std::vector<double> completion_seconds;
  {
    Session session = MakeSession();
    const int64_t t0 = WallNanos();
    std::vector<JobHandle> handles;
    for (const JobSpec& spec : kJobs) {
      JobOptions jopts;
      jopts.run = window;
      jopts.name = spec.name;
      handles.push_back(session.Submit(MakeFlow(session, spec), jopts));
    }
    for (JobHandle& handle : handles) {
      const auto report = handle.Wait();
      if (!report.ok() || !report->reached_end) {
        std::printf("concurrent job %s failed: %s\n", handle.name().c_str(),
                    report.ok() ? "did not finish"
                                : report.status().ToString().c_str());
        return 1;
      }
      // Completion = admission wait + execution (submit -> finished).
      completion_seconds.push_back(report->queue_seconds +
                                   report->wall_seconds);
    }
    concurrent_seconds = (WallNanos() - t0) * 1e-9;
  }
  const double concurrent_rate = total_elements / concurrent_seconds;
  const double speedup = concurrent_rate / serial_rate;
  const double p50 = Percentile(completion_seconds, 0.50);
  const double p95 = Percentile(completion_seconds, 0.95);

  Table table({"mode", "wall s", "items/s", "p50 completion s",
               "p95 completion s"});
  table.AddRow({"serialized (Run)", Table::Num(serial_seconds, 2),
                Table::Num(serial_rate, 0),
                Table::Num(Percentile(serial_completion_seconds, 0.50), 2),
                Table::Num(Percentile(serial_completion_seconds, 0.95), 2)});
  table.AddRow({"concurrent (Submit)", Table::Num(concurrent_seconds, 2),
                Table::Num(concurrent_rate, 0), Table::Num(p50, 2),
                Table::Num(p95, 2)});
  table.Print();
  std::printf("\naggregate speedup: %.2fx (acceptance bar: >= 1.3x)\n",
              speedup);

  std::printf("BENCH_METRIC multi_tenant.serial_items_per_s %.2f\n",
              serial_rate);
  std::printf("BENCH_METRIC multi_tenant.concurrent_items_per_s %.2f\n",
              concurrent_rate);
  std::printf("BENCH_METRIC multi_tenant.speedup_rel %.4f\n", speedup);
  // Completion latencies gate as inverse rates so every gated metric
  // stays higher-is-better.
  std::printf("BENCH_METRIC multi_tenant.p50_completions_per_s %.4f\n",
              p50 > 0 ? 1.0 / p50 : 0.0);
  std::printf("BENCH_METRIC multi_tenant.p95_completions_per_s %.4f\n",
              p95 > 0 ? 1.0 / p95 : 0.0);

  // -- Mixed-class scenario: preemption off vs on.
  PrintHeader(
      "SLO scheduling: interactive stream vs 3 batch jobs (8 cores)");
  MixedClassResult flat, slo;
  if (!RunMixedClassArm(/*preemption=*/false, &flat)) return 1;
  if (!RunMixedClassArm(/*preemption=*/true, &slo)) return 1;

  Table slo_table({"mode", "inter p50 s", "inter p95 s", "batch items/s"});
  slo_table.AddRow({"flat fair share", Table::Num(flat.interactive_p50_s, 3),
                    Table::Num(flat.interactive_p95_s, 3),
                    Table::Num(flat.batch_items_per_s, 0)});
  slo_table.AddRow({"slo preemption", Table::Num(slo.interactive_p50_s, 3),
                    Table::Num(slo.interactive_p95_s, 3),
                    Table::Num(slo.batch_items_per_s, 0)});
  slo_table.Print();

  const double p95_improvement =
      slo.interactive_p95_s > 0
          ? flat.interactive_p95_s / slo.interactive_p95_s
          : 0.0;
  const double batch_retained =
      flat.batch_items_per_s > 0
          ? slo.batch_items_per_s / flat.batch_items_per_s
          : 0.0;
  std::printf(
      "\ninteractive p95 improvement: %.2fx (bar: >= 2x); batch "
      "throughput retained: %.0f%% (bar: >= 85%%)\n",
      p95_improvement, batch_retained * 100);

  // The regression gate watches the preemption-on arm: interactive p95
  // gates on increase (latency suffix), batch throughput on drops. The
  // cross-arm ratios travel across hosts as _rel metrics.
  std::printf("BENCH_METRIC multi_tenant.interactive_p95_latency_s %.4f\n",
              slo.interactive_p95_s);
  std::printf("BENCH_METRIC multi_tenant.batch_items_per_s %.2f\n",
              slo.batch_items_per_s);
  std::printf("BENCH_METRIC multi_tenant.preemption_p95_speedup_rel %.4f\n",
              p95_improvement);
  std::printf("BENCH_METRIC multi_tenant.preemption_batch_retained_rel %.4f\n",
              batch_retained);

  const bool throughput_ok = speedup >= 1.3;
  const bool slo_ok = p95_improvement >= 2.0 && batch_retained >= 0.85;
  if (!throughput_ok) {
    std::printf("FAIL: concurrent speedup %.2fx below the 1.3x bar\n",
                speedup);
  }
  if (!slo_ok) {
    std::printf(
        "FAIL: SLO scenario missed its bars (p95 %.2fx, batch %.0f%%)\n",
        p95_improvement, batch_retained * 100);
  }
  return throughput_ok && slo_ok ? 0 : 1;
}
