// Executor lifecycle and multi-tenant arbitration tests: concurrent
// Submit, mid-run Cancel, handles outliving their Session, fairness
// under maximin re-planning, queueing under a concurrency cap, and the
// multi-job planner's water-filling itself.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/core/multi_job_planner.h"
#include "src/core/plumber.h"
#include "src/pipeline/ops.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::Drain;
using testing_util::PipelineTestEnv;
using testing_util::PollUntil;
using testing_util::SizeFingerprint;

Session MakeSession(int num_cores, int max_concurrent = 0) {
  SessionOptions so;
  so.machine.num_cores = num_cores;
  so.max_concurrent_jobs = max_concurrent;
  Session session(std::move(so));
  EXPECT_TRUE(session.CreateRecordFiles("train/part-", 4, 50, 64).ok());
  UdfSpec work;
  work.name = "work";
  work.cost_ns_per_element = 1e6;  // 1ms: modeled occupancy, kTimed
  EXPECT_TRUE(session.RegisterUdf(work).ok());
  UdfSpec fast;
  fast.name = "fast";
  fast.size_ratio = 2.0;
  EXPECT_TRUE(session.RegisterUdf(fast).ok());
  return session;
}

int LiveParallelism(const JobHandle& job, const std::string& node) {
  for (const auto& s : job.Progress().node_stats) {
    if (s.name == node) return s.parallelism;
  }
  return -1;
}

TEST(ExecutorTest, SubmitWaitMatchesBlockingRunReport) {
  // Flow::Run is Submit + Wait; both must match the low-level
  // single-tenant reference (same pipeline machinery, same counters).
  Session session = MakeSession(8);
  const Flow flow = session.Files("train/")
                        .Interleave(2)
                        .Map("fast", 4).Named("m")
                        .Batch(10);
  RunOptions window;
  window.max_batches = 1000;  // finite input: runs to the end

  PipelineOptions popts = session.MakePipelineOptions();
  auto reference =
      std::move(Pipeline::Create(std::move(flow.Graph()).value(), popts))
          .value();
  const RunResult low_level = RunPipeline(*reference, window);
  ASSERT_TRUE(low_level.status.ok());
  ASSERT_TRUE(low_level.reached_end);

  const auto via_run = flow.Run(window);
  ASSERT_TRUE(via_run.ok()) << via_run.status();
  JobHandle handle = session.Submit(flow, JobOptions{window, "explicit"});
  const auto via_submit = handle.Wait();
  ASSERT_TRUE(via_submit.ok()) << via_submit.status();
  EXPECT_EQ(handle.phase(), JobPhase::kDone);
  EXPECT_EQ(handle.name(), "explicit");

  for (const RunReport* report : {&*via_run, &*via_submit}) {
    EXPECT_TRUE(report->status.ok());
    EXPECT_TRUE(report->reached_end);
    EXPECT_EQ(report->batches, low_level.batches);
    EXPECT_EQ(report->elements, low_level.examples);
    EXPECT_GT(report->bytes_produced, 0u);
    EXPECT_GE(report->queue_seconds, 0.0);
    const IteratorStatsSnapshot* map = report->FindNode("m");
    ASSERT_NE(map, nullptr);
    // A job running alone is never arbitrated: configured knob stands.
    EXPECT_EQ(map->parallelism, 4);
    EXPECT_EQ(map->elements_produced, 200u);
  }
}

TEST(ExecutorTest, ConcurrentSubmitAllJobsComplete) {
  Session session = MakeSession(8);
  RunOptions window;
  window.max_batches = 2000;
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 4; ++i) {
    // Heterogeneous mix: two expensive, two cheap pipelines.
    Flow flow = i % 2 == 0
                    ? session.Range(60).Map("work", 2).Named("m")
                    : session.Files("train/").Interleave(2).Map("fast", 2);
    jobs.push_back(session.Submit(flow, JobOptions{window, ""}));
  }
  int64_t total_elements = 0;
  for (JobHandle& job : jobs) {
    const auto report = job.Wait();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(job.phase(), JobPhase::kDone);
    EXPECT_TRUE(report->reached_end);
    total_elements += report->elements;
  }
  EXPECT_EQ(total_elements, 60 + 60 + 200 + 200);
}

TEST(ExecutorTest, MidRunCancelStopsPromptly) {
  Session session = MakeSession(8);
  RunOptions window;
  window.max_seconds = 60;  // failsafe; the test cancels long before
  JobHandle job =
      session.Submit(session.Range(1 << 30).Map("work", 2), JobOptions{window, ""});
  ASSERT_TRUE(PollUntil([&] { return job.Progress().batches > 0; }));
  EXPECT_EQ(job.phase(), JobPhase::kRunning);
  const auto t0 = std::chrono::steady_clock::now();
  job.Cancel();
  const auto report = job.Wait();
  const double cancel_latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(job.phase(), JobPhase::kCancelled);
  // Cooperative cancel is a clean outcome: partial counts stand.
  EXPECT_TRUE(report->status.ok());
  EXPECT_GT(report->batches, 0);
  EXPECT_FALSE(report->reached_end);
  EXPECT_LT(cancel_latency, 30.0);
}

TEST(ExecutorTest, HandleOutlivesSession) {
  JobHandle job;
  {
    Session session = MakeSession(4);
    RunOptions window;
    window.max_seconds = 60;
    job = session.Submit(session.Range(1 << 30).Map("work", 2),
                         JobOptions{window, ""});
    ASSERT_TRUE(PollUntil([&] { return job.Progress().batches > 0; }));
  }  // Session destroyed; the handle keeps the environment alive.
  EXPECT_EQ(job.phase(), JobPhase::kRunning);
  EXPECT_GT(job.Progress().batches, 0);
  job.Cancel();
  const auto report = job.Wait();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(job.phase(), JobPhase::kCancelled);
}

TEST(ExecutorTest, MaximinReplanningIsFairAndRestores) {
  // Three identical jobs demanding 8 workers each on an 8-core
  // machine: the maximin split grants each the same share (no job
  // starves), and the last survivor gets its configured knob back.
  Session session = MakeSession(8);
  RunOptions window;
  window.max_seconds = 60;
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(session.Submit(
        session.Range(1 << 30).Map("work", 8).Named("m"),
        JobOptions{window, ""}));
  }
  // All three arbitrated to the fair share: floor(8/3) = 2 workers.
  ASSERT_TRUE(PollUntil([&] {
    for (JobHandle& job : jobs) {
      if (LiveParallelism(job, "m") != 2) return false;
    }
    return true;
  })) << LiveParallelism(jobs[0], "m") << " "
      << LiveParallelism(jobs[1], "m") << " "
      << LiveParallelism(jobs[2], "m");
  // No job starves under the split: every job keeps making progress.
  std::vector<int64_t> before;
  for (JobHandle& job : jobs) before.push_back(job.Progress().batches);
  ASSERT_TRUE(PollUntil([&] {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].Progress().batches <= before[i]) return false;
    }
    return true;
  }));
  // Departures hand cores back: cancel two, the survivor grows to its
  // configured 8 workers (target cleared, pool resized in place).
  jobs[0].Cancel();
  jobs[1].Cancel();
  ASSERT_TRUE(PollUntil([&] { return LiveParallelism(jobs[2], "m") == 8; }));
  jobs[2].Cancel();
  for (JobHandle& job : jobs) {
    const auto report = job.Wait();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(job.phase(), JobPhase::kCancelled);
    EXPECT_GT(report->batches, 0);
  }
}

TEST(ExecutorTest, ConcurrencyCapQueuesAndReportsQueueSeconds) {
  Session session = MakeSession(8, /*max_concurrent=*/1);
  RunOptions window;
  window.max_batches = 150;
  const Flow flow = session.Range(150).Map("work", 2);
  JobHandle first = session.Submit(flow, JobOptions{window, ""});
  JobHandle second = session.Submit(flow, JobOptions{window, ""});
  const auto r1 = first.Wait();
  const auto r2 = second.Wait();
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  // 150 elements at 1ms/2 workers ~ 75ms of run time for the first
  // job; the second waited for all of it.
  EXPECT_GT(r2->queue_seconds, r1->queue_seconds);
  EXPECT_GT(r2->queue_seconds, 0.03);
}

TEST(ExecutorTest, CancelWhileQueuedNeverRuns) {
  Session session = MakeSession(8, /*max_concurrent=*/1);
  RunOptions window;
  window.max_seconds = 60;
  JobHandle blocker = session.Submit(session.Range(1 << 30).Map("work", 2),
                                     JobOptions{window, ""});
  ASSERT_TRUE(PollUntil([&] { return blocker.Progress().batches > 0; }));
  std::vector<JobHandle> queued;
  for (int i = 0; i < 5; ++i) {
    queued.push_back(session.Submit(session.Range(100).Map("fast", 2),
                                    JobOptions{window, ""}));
    EXPECT_EQ(queued.back().phase(), JobPhase::kQueued);
  }
  for (const JobHandle& job : queued) {
    // Cancel wakes the scheduler, which finishes the job at once: no
    // polling tick sits between the Cancel and the Wait returning.
    const auto cancelled_at = std::chrono::steady_clock::now();
    job.Cancel();
    const auto report = job.Wait();
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - cancelled_at)
                              .count();
    EXPECT_LT(waited, 0.010);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(job.phase(), JobPhase::kCancelled);
  }
  // queue_seconds freezes at the terminal timestamp for a job that
  // never ran; it must not keep growing with wall time.
  const double q1 = queued.front().Progress().queue_seconds;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_DOUBLE_EQ(queued.front().Progress().queue_seconds, q1);
  blocker.Cancel();
  (void)blocker.Wait();
}

TEST(ExecutorTest, SubmitErrorsSurfaceThroughHandle) {
  Session session = MakeSession(4);
  // Unknown UDF: instantiation fails at admission, Wait reports it.
  RunOptions window;
  window.max_batches = 10;
  JobHandle bad = session.Submit(session.Range(10).Map("nope", 2),
                                 JobOptions{window, ""});
  const auto report = bad.Wait();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(bad.phase(), JobPhase::kFailed);
  // An unbound flow fails at Submit itself.
  JobHandle unbound = Flow().Submit();
  EXPECT_FALSE(unbound.status().ok());
  EXPECT_FALSE(unbound.Wait().ok());
  // A flow from a different session is rejected.
  Session other = MakeSession(4);
  JobHandle foreign = session.Submit(other.Range(5), JobOptions{window, ""});
  EXPECT_FALSE(foreign.Wait().ok());
}

TEST(ExecutorTest, GovernorRetargetingPreservesDeterministicOutput) {
  // Element-for-element identity while worker pools grow and shrink
  // mid-run: resize history must never leak into results.
  PipelineTestEnv env(4, 25, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  // "slow" (200us modeled) keeps the drain in flight long enough to
  // overlap dozens of retargets.
  n = b.Map("m", n, "slow", 4, /*deterministic=*/true);
  n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
  const GraphDef graph = std::move(b.Build(n)).value();

  auto reference =
      std::move(Pipeline::Create(graph, env.Options())).value();
  const auto expected = Drain(*reference);
  ASSERT_FALSE(expected.empty());

  PipelineOptions options = env.Options();
  options.governor = std::make_shared<ParallelismGovernor>();
  auto pipeline = std::move(Pipeline::Create(graph, options)).value();
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    int target = 1;
    while (!stop.load()) {
      options.governor->SetTarget("m", target);
      target = target % 6 + 1;  // sweep 1..6, above and below configured
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto resized = Drain(*pipeline);
  stop.store(true);
  flipper.join();
  ASSERT_EQ(expected.size(), resized.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].components, resized[i].components) << "elem " << i;
  }
}

TEST(MultiJobPlannerTest, EqualJobsSplitEvenly) {
  std::vector<JobDemand> demands;
  for (int i = 0; i < 2; ++i) {
    JobDemand d;
    d.job_id = "j" + std::to_string(i);
    MaxMinStage stage;
    stage.name = "m";
    stage.rate_per_core = 1.0;
    d.stages.push_back(stage);
    d.max_parallelism["m"] = 8;
    demands.push_back(std::move(d));
  }
  const MultiJobPlan plan = PlanMultiJobAllocation(demands, 8);
  EXPECT_NEAR(plan.fair_rate, 4.0, 1e-9);
  ASSERT_EQ(plan.jobs.size(), 2u);
  for (const auto& [id, job_plan] : plan.jobs) {
    EXPECT_EQ(job_plan.parallelism.at("m"), 4) << id;
  }
}

TEST(MultiJobPlannerTest, CappedJobReleasesSurplus) {
  JobDemand small;
  small.job_id = "small";
  small.stages.push_back({"m", 1.0, false});
  small.max_parallelism["m"] = 2;  // configured knob caps its grant
  JobDemand big;
  big.job_id = "big";
  big.stages.push_back({"m", 1.0, false});
  big.max_parallelism["m"] = 16;
  const MultiJobPlan plan = PlanMultiJobAllocation({small, big}, 8);
  EXPECT_EQ(plan.jobs.at("small").parallelism.at("m"), 2);
  EXPECT_EQ(plan.jobs.at("big").parallelism.at("m"), 6);
}

TEST(MultiJobPlannerTest, RateAwareSplitEqualizesJobRates) {
  // Job "slow" needs 1 core per unit rate, "quick" 0.5: maximin gives
  // both the same rate, so slow gets twice the cores.
  JobDemand slow;
  slow.job_id = "slow";
  slow.stages.push_back({"m", 1.0, false});
  JobDemand quick;
  quick.job_id = "quick";
  quick.stages.push_back({"m", 2.0, false});
  const MultiJobPlan plan = PlanMultiJobAllocation({slow, quick}, 9);
  EXPECT_NEAR(plan.fair_rate, 6.0, 1e-9);
  EXPECT_NEAR(plan.jobs.at("slow").theta.at("m"), 6.0, 1e-9);
  EXPECT_NEAR(plan.jobs.at("quick").theta.at("m"), 3.0, 1e-9);
}

TEST(MultiJobPlannerTest, NoJobStarvesUnderOversubscription) {
  // 12 single-stage jobs on 4 cores: integer grants floor at one
  // worker each — arbitration throttles, it never stops a job.
  std::vector<JobDemand> demands;
  for (int i = 0; i < 12; ++i) {
    JobDemand d;
    d.job_id = "j" + std::to_string(i);
    d.stages.push_back({"m", 1.0, false});
    d.max_parallelism["m"] = 4;
    demands.push_back(std::move(d));
  }
  const MultiJobPlan plan = PlanMultiJobAllocation(demands, 4);
  for (const auto& [id, job_plan] : plan.jobs) {
    EXPECT_GE(job_plan.parallelism.at("m"), 1) << id;
  }
}

TEST(ExecutorTest, LoadSnapshotTracksQueueRunningAndGrants) {
  // The fleet dispatcher's signal: queue depth, running set, and the
  // live jobs' granted cores in one consistent view.
  PipelineTestEnv env;
  MachineSpec machine;
  machine.num_cores = 8;
  runtime::ExecutorOptions eopts;
  eopts.max_concurrent_jobs = 1;  // force the second submit to queue
  runtime::Executor executor([&] { return env.Options(); },
                             [&] { return machine; }, eopts);

  const runtime::ExecutorLoadSnapshot idle = executor.LoadSnapshot();
  EXPECT_EQ(idle.queued_jobs, 0);
  EXPECT_EQ(idle.running_jobs, 0);
  EXPECT_EQ(idle.granted_cores, 0);

  GraphDef graph;
  NodeDef src;
  src.name = "src";
  src.op = "range";
  src.attrs[kAttrCount] = AttrValue(int64_t{-1});  // run until cancelled
  ASSERT_TRUE(graph.AddNode(std::move(src)).ok());
  NodeDef work;
  work.name = "work";
  work.op = "map";
  work.inputs = {"src"};
  work.attrs[kAttrUdf] = AttrValue("slow");
  work.attrs[kAttrParallelism] = AttrValue(3);
  ASSERT_TRUE(graph.AddNode(std::move(work)).ok());
  graph.SetOutput("work");

  runtime::JobOptions jopts;
  jopts.run.max_seconds = 30;
  runtime::JobPtr first = executor.Submit(graph, jopts);
  runtime::JobPtr second = executor.Submit(graph, jopts);
  ASSERT_TRUE(PollUntil([&] {
    const runtime::ExecutorLoadSnapshot s = executor.LoadSnapshot();
    return s.running_jobs == 1 && s.queued_jobs == 1;
  }));
  // One live job, never arbitrated (it runs alone): granted cores are
  // its configured knob.
  const runtime::ExecutorLoadSnapshot busy = executor.LoadSnapshot();
  EXPECT_EQ(busy.granted_cores, 3.0);

  first->Cancel();
  second->Cancel();
  first->Wait();
  second->Wait();
  ASSERT_TRUE(PollUntil([&] {
    const runtime::ExecutorLoadSnapshot s = executor.LoadSnapshot();
    return s.queued_jobs == 0 && s.running_jobs == 0;
  }));
}

TEST(MultiJobPlannerTest, TracedRatesYieldUnequalShares) {
  // Two jobs with identical topology but 4x different measured stage
  // rates: the heavy job (fewer minibatches/sec/core) must win more
  // cores than the light one, which the uniform fallback cannot see.
  const auto make_graph = [](double rate) {
    GraphDef graph;
    NodeDef src;
    src.name = "src";
    src.op = "range";
    src.attrs[kAttrCount] = AttrValue(int64_t{1000});
    EXPECT_TRUE(graph.AddNode(std::move(src)).ok());
    NodeDef work;
    work.name = "work";
    work.op = "map";
    work.inputs = {"src"};
    work.attrs[kAttrUdf] = AttrValue("noop");
    work.attrs[kAttrParallelism] = AttrValue(8);
    EXPECT_TRUE(graph.AddNode(std::move(work)).ok());
    graph.SetOutput("work");
    EXPECT_TRUE(rewriter::SetTracedRate(&graph, "work", rate).ok());
    return graph;
  };
  const GraphDef heavy = make_graph(25.0);   // slow stage: costly cores
  const GraphDef light = make_graph(100.0);  // 4x faster per core

  const JobDemand heavy_demand = DemandFromGraph("heavy", heavy);
  ASSERT_EQ(heavy_demand.stages.size(), 1u);
  EXPECT_EQ(heavy_demand.stages[0].name, "work");
  EXPECT_NEAR(heavy_demand.stages[0].rate_per_core, 25.0, 1e-12);
  EXPECT_FALSE(heavy_demand.stages[0].sequential);
  EXPECT_EQ(heavy_demand.max_parallelism.at("work"), 8);

  const MultiJobPlan plan = PlanMultiJobAllocation(
      {heavy_demand, DemandFromGraph("light", light)}, 10);
  // Maximin equalizes job rates: X/25 + X/100 = 10 -> X = 200, so
  // heavy gets 8 cores (its cap) and light 2.
  EXPECT_GT(plan.jobs.at("heavy").theta.at("work"),
            plan.jobs.at("light").theta.at("work"));
  EXPECT_EQ(plan.jobs.at("heavy").parallelism.at("work"), 8);
  EXPECT_EQ(plan.jobs.at("light").parallelism.at("work"), 2);
}

TEST(MultiJobPlannerTest, TracedSequentialStageCapsAndUntracedFallback) {
  // A stamped non-tunable node becomes a sequential rate cap; a graph
  // with no stamps keeps the exact uniform fallback.
  GraphDef graph;
  NodeDef src;
  src.name = "src";
  src.op = "range";
  src.attrs[kAttrCount] = AttrValue(int64_t{1000});
  ASSERT_TRUE(graph.AddNode(std::move(src)).ok());
  NodeDef work;
  work.name = "work";
  work.op = "map";
  work.inputs = {"src"};
  work.attrs[kAttrUdf] = AttrValue("noop");
  work.attrs[kAttrParallelism] = AttrValue(4);
  ASSERT_TRUE(graph.AddNode(std::move(work)).ok());
  NodeDef sink;
  sink.name = "sink";
  sink.op = "batch";
  sink.inputs = {"work"};
  sink.attrs[kAttrBatchSize] = AttrValue(8);
  ASSERT_TRUE(graph.AddNode(std::move(sink)).ok());
  graph.SetOutput("sink");

  const JobDemand untraced = DemandFromGraph("u", graph);
  ASSERT_EQ(untraced.stages.size(), 1u);
  EXPECT_NEAR(untraced.stages[0].rate_per_core, 1.0, 1e-12);

  ASSERT_TRUE(rewriter::SetTracedRate(&graph, "work", 50.0).ok());
  ASSERT_TRUE(rewriter::SetTracedRate(&graph, "sink", 30.0).ok());
  const JobDemand traced = DemandFromGraph("t", graph);
  ASSERT_EQ(traced.stages.size(), 2u);
  bool saw_sequential_sink = false;
  for (const MaxMinStage& stage : traced.stages) {
    if (stage.name == "sink") {
      saw_sequential_sink = stage.sequential;
      EXPECT_NEAR(stage.rate_per_core, 30.0, 1e-12);
    }
  }
  EXPECT_TRUE(saw_sequential_sink);
  // The sequential sink (rate 30) caps the job below what its map
  // could reach on a big budget.
  const MultiJobPlan plan = PlanMultiJobAllocation({traced}, 64);
  EXPECT_LE(plan.jobs.at("t").predicted_rate, 30.0 + 1e-9);
}

TEST(MultiJobPlannerTest, OptimizerStampsTracedRatesOnRealSchedule) {
  // End to end: a real pass schedule leaves measured rates in the
  // returned graph; the empty schedule stays byte-identical (covered
  // by passes_test) and therefore unstamped.
  PipelineTestEnv env;
  OptimizeOptions options;
  options.fs = &env.fs;
  options.udfs = &env.udfs;
  options.schedule = "parallelism";
  options.trace_seconds = 0.05;
  PlumberOptimizer optimizer(options);
  GraphBuilder builder;
  const std::string files = builder.FileList("files", "data/f");
  const std::string records = builder.TfRecord("records", files);
  const std::string mapped = builder.Map("mapped", records, "slow", 1);
  const std::string root = builder.Prefetch("root", mapped, 2);
  auto graph_or = builder.Build(root);
  ASSERT_TRUE(graph_or.ok());
  auto result = optimizer.Optimize(*graph_or);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(rewriter::GetTracedRate(result->graph, mapped), 0.0);
}

TEST(MultiJobPlannerTest, SequentialStageCapsJobRate) {
  JobDemand capped;
  capped.job_id = "capped";
  capped.stages.push_back({"m", 10.0, false});
  capped.stages.push_back({"seq", 3.0, true});  // rate ceiling 3
  JobDemand free_job;
  free_job.job_id = "free";
  free_job.stages.push_back({"m", 1.0, false});
  const MultiJobPlan plan = PlanMultiJobAllocation({capped, free_job}, 8);
  // capped runs at 3 (0.3 cores for its map); free takes the rest.
  EXPECT_GT(plan.jobs.at("free").theta.at("m"),
            plan.jobs.at("capped").theta.at("m"));
  EXPECT_LE(plan.jobs.at("capped").predicted_rate, 3.0 + 1e-9);
}

}  // namespace
}  // namespace plumber
