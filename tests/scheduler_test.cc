// SLO-aware scheduling tests: tiered weighted water-fill planning,
// live preemption (interactive arrivals parking batch worker pools to
// their floor and restoring them on departure), class-ordered
// queueing, the partial-traced-rate warning contract, and the
// governor's park/restore cycle under load (element identity, no
// worker-thread leak).
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

using testing_util::CountOwnThreads;
using testing_util::Drain;
using testing_util::ExpectIdenticalOutput;
using testing_util::PipelineTestEnv;
using testing_util::PollUntil;

Session MakeSession(int num_cores, SessionOptions so = {}) {
  so.machine.num_cores = num_cores;
  Session session(std::move(so));
  UdfSpec work;
  work.name = "work";
  work.cost_ns_per_element = 1e6;  // 1ms: modeled occupancy, kTimed
  EXPECT_TRUE(session.RegisterUdf(work).ok());
  return session;
}

int LiveParallelism(const JobHandle& job, const std::string& node) {
  for (const auto& s : job.Progress().node_stats) {
    if (s.name == node) return s.parallelism;
  }
  return -1;
}

JobDemand OneStageDemand(const std::string& id, int cap, double weight = 1.0,
                         int tier = 0) {
  JobDemand d;
  d.job_id = id;
  d.stages.push_back({"m", 1.0, false});
  d.max_parallelism["m"] = cap;
  d.weight = weight;
  d.tier = tier;
  return d;
}

// ------------------------------------------------- planner: weights

TEST(SloPlannerTest, WeightsSplitCoresProportionally) {
  // Same tier, weights 3:1 on 8 cores: the weighted water-fill
  // equalizes rate/weight, so the heavy job runs (and is granted) 3x.
  const MultiJobPlan plan = PlanMultiJobAllocation(
      {OneStageDemand("heavy", 8, 3.0), OneStageDemand("light", 8, 1.0)}, 8);
  EXPECT_NEAR(plan.fair_rate, 2.0, 1e-9);  // waterline: rate of weight 1
  EXPECT_NEAR(plan.jobs.at("heavy").theta.at("m"), 6.0, 1e-9);
  EXPECT_NEAR(plan.jobs.at("light").theta.at("m"), 2.0, 1e-9);
  EXPECT_EQ(plan.jobs.at("heavy").parallelism.at("m"), 6);
  EXPECT_EQ(plan.jobs.at("light").parallelism.at("m"), 2);
}

TEST(SloPlannerTest, CappedWeightedJobReleasesSurplusWithinTier) {
  // The weight-3 job can only use 2 workers: its surplus flows to the
  // weight-1 peer instead of idling (work conservation within a tier).
  const MultiJobPlan plan = PlanMultiJobAllocation(
      {OneStageDemand("capped", 2, 3.0), OneStageDemand("open", 8, 1.0)}, 8);
  EXPECT_EQ(plan.jobs.at("capped").parallelism.at("m"), 2);
  EXPECT_EQ(plan.jobs.at("open").parallelism.at("m"), 6);
  EXPECT_NEAR(plan.unused_cores, 0.0, 1e-9);
}

TEST(SloPlannerTest, DefaultsMatchUnweightedPlanBitForBit) {
  // Weight 1 / tier 0 (the defaults) must reproduce the original
  // unweighted maximin exactly — not approximately — so pre-SLO
  // callers see unchanged plans.
  JobDemand slow;
  slow.job_id = "slow";
  slow.stages.push_back({"m", 1.0, false});
  JobDemand quick;
  quick.job_id = "quick";
  quick.stages.push_back({"m", 2.0, false});
  const MultiJobPlan plan = PlanMultiJobAllocation({slow, quick}, 9);
  // The exact values the unweighted water-fill has always produced
  // (see MultiJobPlannerTest.RateAwareSplitEqualizesJobRates).
  EXPECT_EQ(plan.fair_rate, 6.0);
  EXPECT_EQ(plan.jobs.at("slow").theta.at("m"), 6.0);
  EXPECT_EQ(plan.jobs.at("quick").theta.at("m"), 3.0);
}

// --------------------------------------------------- planner: tiers

TEST(SloPlannerTest, InteractiveTierPreemptsBatchToFloor) {
  // One interactive + one batch job, both wanting all 8 cores: the
  // interactive tier is allocated first from everything except the
  // batch job's floor (1 core per costed stage).
  const MultiJobPlan plan = PlanMultiJobAllocation(
      {OneStageDemand("inter", 8, 1.0, 0), OneStageDemand("batch", 8, 1.0, 1)},
      8);
  EXPECT_EQ(plan.jobs.at("inter").parallelism.at("m"), 7);
  EXPECT_EQ(plan.jobs.at("batch").parallelism.at("m"), 1);
}

TEST(SloPlannerTest, SatisfiedInteractiveTierFlowsDownToBatch) {
  // The interactive job caps at 2 workers: the lower tier water-fills
  // the remaining 6 cores (work conservation across tiers).
  const MultiJobPlan plan = PlanMultiJobAllocation(
      {OneStageDemand("inter", 2, 1.0, 0), OneStageDemand("batch", 8, 1.0, 1)},
      8);
  EXPECT_EQ(plan.jobs.at("inter").parallelism.at("m"), 2);
  EXPECT_EQ(plan.jobs.at("batch").parallelism.at("m"), 6);
}

TEST(SloPlannerTest, ZeroBudgetTierStillGetsFloorGrant) {
  // A 1-core machine with an interactive job resident: the batch tier's
  // budget is squeezed to zero, but its plan still carries the
  // explicit 1-worker floor — the governor must receive target 1, not
  // silence (silence would leave the configured knob running).
  const MultiJobPlan plan = PlanMultiJobAllocation(
      {OneStageDemand("inter", 8, 1.0, 0), OneStageDemand("batch", 8, 1.0, 1)},
      1);
  ASSERT_EQ(plan.jobs.count("batch"), 1u);
  EXPECT_EQ(plan.jobs.at("batch").parallelism.at("m"), 1);
}

TEST(SloPlannerTest, ThreeTiersAllocateInOrder) {
  // interactive > batch > best-effort on 12 cores: tier 0 takes all
  // but the two floors, and each lower tier lives on what trickles
  // down.
  const MultiJobPlan plan = PlanMultiJobAllocation(
      {OneStageDemand("i", 16, 1.0, 0), OneStageDemand("b", 16, 1.0, 1),
       OneStageDemand("e", 16, 1.0, 2)},
      12);
  EXPECT_EQ(plan.jobs.at("i").parallelism.at("m"), 10);
  EXPECT_EQ(plan.jobs.at("b").parallelism.at("m"), 1);
  EXPECT_EQ(plan.jobs.at("e").parallelism.at("m"), 1);
}

TEST(SloPlannerTest, UnusedCoresReportedWhenDemandIsSmall) {
  // Every job frozen at its cap with budget left over: the surplus is
  // reported as genuinely unused, not silently lost.
  const MultiJobPlan plan =
      PlanMultiJobAllocation({OneStageDemand("only", 2)}, 8);
  EXPECT_EQ(plan.jobs.at("only").parallelism.at("m"), 2);
  EXPECT_NEAR(plan.unused_cores, 6.0, 1e-9);
  EXPECT_NEAR(plan.cores_used, 2.0, 1e-9);
}

// ----------------------------------------- planner: partial tracing

TEST(SloPlannerTest, PartiallyStampedGraphWarnsAndSkipsUnstamped) {
  GraphDef graph;
  NodeDef src;
  src.name = "src";
  src.op = "range";
  src.attrs[kAttrCount] = AttrValue(int64_t{1000});
  ASSERT_TRUE(graph.AddNode(std::move(src)).ok());
  for (const char* name : {"a", "b"}) {
    NodeDef map;
    map.name = name;
    map.op = "map";
    map.inputs = {name[0] == 'a' ? "src" : "a"};
    map.attrs[kAttrUdf] = AttrValue("noop");
    map.attrs[kAttrParallelism] = AttrValue(4);
    ASSERT_TRUE(graph.AddNode(std::move(map)).ok());
  }
  graph.SetOutput("b");

  // Untraced: uniform fallback covers both stages, no warning.
  std::string warning;
  const JobDemand untraced = DemandFromGraph("u", graph, &warning);
  EXPECT_EQ(untraced.stages.size(), 2u);
  EXPECT_TRUE(warning.empty());

  // One stamp flips the graph to traced mode: the unstamped tunable
  // node is excluded from the demand and the caller is warned.
  ASSERT_TRUE(rewriter::SetTracedRate(&graph, "a", 50.0).ok());
  const JobDemand partial = DemandFromGraph("p", graph, &warning);
  ASSERT_EQ(partial.stages.size(), 1u);
  EXPECT_EQ(partial.stages[0].name, "a");
  EXPECT_FALSE(warning.empty());
  EXPECT_NE(warning.find("partially traced"), std::string::npos);
  EXPECT_NE(warning.find("'b'"), std::string::npos);

  // Full coverage: warning stays untouched again.
  warning.clear();
  ASSERT_TRUE(rewriter::SetTracedRate(&graph, "b", 80.0).ok());
  const JobDemand full = DemandFromGraph("f", graph, &warning);
  EXPECT_EQ(full.stages.size(), 2u);
  EXPECT_TRUE(warning.empty());
}

// ------------------------------------------------ live preemption

TEST(SloSchedulerTest, InteractiveArrivalParksBatchAndDepartureRestores) {
  Session session = MakeSession(8);
  RunOptions window;
  window.max_seconds = 60;
  JobOptions batch_opts{window, "batch"};
  JobHandle batch = session.Submit(
      session.Range(1 << 30).Map("work", 8).Named("m"), batch_opts);
  // Alone it is never arbitrated: the configured knob stands.
  ASSERT_TRUE(PollUntil([&] { return LiveParallelism(batch, "m") == 8; }));

  JobOptions inter_opts{window, "inter"};
  inter_opts.slo = SloClass::kInteractive;
  JobHandle inter = session.Submit(
      session.Range(1 << 30).Map("work", 8).Named("i"), inter_opts);
  // The interactive arrival parks the batch pool to its floor of one
  // worker and takes the other 7 cores.
  ASSERT_TRUE(PollUntil([&] { return LiveParallelism(batch, "m") == 1; }))
      << LiveParallelism(batch, "m");
  ASSERT_TRUE(PollUntil([&] { return LiveParallelism(inter, "i") == 7; }))
      << LiveParallelism(inter, "i");
  // The parked job keeps making progress on its floor worker.
  const int64_t before = batch.Progress().batches;
  ASSERT_TRUE(PollUntil([&] { return batch.Progress().batches > before; }));

  // Departure restores the survivor to its configured knob.
  inter.Cancel();
  (void)inter.Wait();
  ASSERT_TRUE(PollUntil([&] { return LiveParallelism(batch, "m") == 8; }))
      << LiveParallelism(batch, "m");
  batch.Cancel();
  const auto report = batch.Wait();
  ASSERT_TRUE(report.ok()) << report.status();
}

TEST(SloSchedulerTest, PreemptionOffKeepsFlatFairShare) {
  SessionOptions so;
  so.executor.slo_preemption = false;
  Session session = MakeSession(8, std::move(so));
  RunOptions window;
  window.max_seconds = 60;
  JobOptions batch_opts{window, "batch"};
  JobHandle batch = session.Submit(
      session.Range(1 << 30).Map("work", 8).Named("m"), batch_opts);
  JobOptions inter_opts{window, "inter"};
  inter_opts.slo = SloClass::kInteractive;
  JobHandle inter = session.Submit(
      session.Range(1 << 30).Map("work", 8).Named("i"), inter_opts);
  // Single flat tier: identical demands split evenly, class ignored.
  ASSERT_TRUE(PollUntil([&] {
    return LiveParallelism(batch, "m") == 4 && LiveParallelism(inter, "i") == 4;
  })) << LiveParallelism(batch, "m") << " " << LiveParallelism(inter, "i");
  batch.Cancel();
  inter.Cancel();
  (void)batch.Wait();
  (void)inter.Wait();
}

TEST(SloSchedulerTest, PriorityWeightsSharesWithinClass) {
  Session session = MakeSession(8);
  RunOptions window;
  window.max_seconds = 60;
  JobOptions heavy_opts{window, "heavy"};
  heavy_opts.priority = 3.0;
  JobHandle heavy = session.Submit(
      session.Range(1 << 30).Map("work", 8).Named("m"), heavy_opts);
  JobOptions light_opts{window, "light"};
  JobHandle light = session.Submit(
      session.Range(1 << 30).Map("work", 8).Named("m"), light_opts);
  // Same class, weights 3:1 -> 6 and 2 of the 8 cores.
  ASSERT_TRUE(PollUntil([&] {
    return LiveParallelism(heavy, "m") == 6 && LiveParallelism(light, "m") == 2;
  })) << LiveParallelism(heavy, "m") << " " << LiveParallelism(light, "m");
  heavy.Cancel();
  light.Cancel();
  (void)heavy.Wait();
  (void)light.Wait();
}

// ------------------------------------------------------- admission

TEST(SloSchedulerTest, InteractiveJumpsTheAdmissionQueue) {
  SessionOptions so;
  so.executor.max_concurrent_jobs = 1;
  Session session = MakeSession(8, std::move(so));
  RunOptions window;
  window.max_seconds = 60;
  JobHandle blocker = session.Submit(session.Range(1 << 30).Map("work", 2),
                                     JobOptions{window, ""});
  ASSERT_TRUE(PollUntil([&] { return blocker.Progress().batches > 0; }));
  JobHandle batch = session.Submit(session.Range(50).Map("work", 2),
                                   JobOptions{window, "queued-batch"});
  JobOptions inter_opts{window, "queued-inter"};
  inter_opts.slo = SloClass::kInteractive;
  JobHandle inter =
      session.Submit(session.Range(50).Map("work", 2), inter_opts);
  EXPECT_EQ(batch.phase(), JobPhase::kQueued);
  EXPECT_EQ(inter.phase(), JobPhase::kQueued);
  // The interactive job arrived second but runs first: it was inserted
  // ahead of the earlier-queued batch job, so the batch job's queue
  // wait additionally covers the whole interactive run (the cap admits
  // one at a time).
  blocker.Cancel();
  (void)blocker.Wait();
  const auto inter_report = inter.Wait();
  ASSERT_TRUE(inter_report.ok()) << inter_report.status();
  const auto batch_report = batch.Wait();
  ASSERT_TRUE(batch_report.ok()) << batch_report.status();
  EXPECT_GT(batch_report->queue_seconds, inter_report->queue_seconds);
}

// ------------------------------------------- governor park/restore

TEST(SloSchedulerTest, GovernorParkRestoreCyclesKeepIdentityAndThreads) {
  // Ten full park/restore cycles (floor 1 <-> configured 6) while a
  // deterministic pipeline drains: output must be element-for-element
  // identical to an ungoverned run, and the worker pool must neither
  // leak threads across cycles nor shrink permanently.
  PipelineTestEnv env(4, 50, 48);
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "slow", 6, /*deterministic=*/true);
  n = b.Batch("bt", n, 4, /*drop_remainder=*/false);
  const GraphDef graph = std::move(b.Build(n)).value();

  auto reference = std::move(Pipeline::Create(graph, env.Options())).value();
  const auto expected = Drain(*reference);
  ASSERT_FALSE(expected.empty());

  const int baseline_threads = CountOwnThreads();
  {
    PipelineOptions options = env.Options();
    options.governor = std::make_shared<ParallelismGovernor>();
    auto pipeline = std::move(Pipeline::Create(graph, options)).value();
    std::atomic<bool> stop{false};
    std::atomic<int> cycles{0};
    std::thread preemptor([&] {
      // Park to the floor, restore to configured — the exact signal
      // pair the executor emits on interactive arrival/departure.
      while (!stop.load() && cycles.load() < 10) {
        options.governor->SetTarget("m", 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        options.governor->SetTarget("m", 0);  // clear: back to configured
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        cycles.fetch_add(1);
      }
    });
    const auto resized = Drain(*pipeline);
    stop.store(true);
    preemptor.join();
    EXPECT_GE(cycles.load(), 1);
    ExpectIdenticalOutput(expected, resized);
    // After the last restore the override map is empty again: the
    // governor reports no live override (observability contract).
    options.governor->SetTarget("m", 0);
    EXPECT_TRUE(options.governor->Targets().empty());
    options.governor->SetTarget("m", 3);
    const auto targets = options.governor->Targets();
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets.at("m"), 3);
  }
  // Pipeline destroyed: every worker thread spawned across the ten
  // resize cycles must be joined — parked workers sleep, they are
  // never abandoned.
  EXPECT_TRUE(PollUntil(
      [&] { return CountOwnThreads() <= baseline_threads; }, 10))
      << "threads before: " << baseline_threads
      << " after: " << CountOwnThreads();
}

}  // namespace
}  // namespace plumber
