// Deadline-aware scheduling on JobOptions::latency_target_s: queued
// jobs of the same SLO class run earliest-deadline-first (ahead of
// deadline-free peers), and a queued job whose deadline already passed
// is shed with kResourceExhausted instead of running a guaranteed miss.
#include <gtest/gtest.h>

#include "src/core/plumber.h"
#include "tests/test_util.h"

namespace plumber {
namespace {

using testing_util::PollUntil;

Session MakeSession(SessionOptions so = {}) {
  so.machine.num_cores = 4;
  so.max_concurrent_jobs = 1;  // force a queue so ordering is observable
  Session session(std::move(so));
  UdfSpec work;
  work.name = "work";
  work.cost_ns_per_element = 1e6;
  EXPECT_TRUE(session.RegisterUdf(work).ok());
  return session;
}

TEST(DeadlineSchedTest, EarliestDeadlineRunsFirstWithinClass) {
  Session session = MakeSession();
  RunOptions window;
  window.max_seconds = 60;
  JobHandle blocker = session.Submit(session.Range(1 << 30).Map("work", 2),
                                     JobOptions{window, "blocker"});
  ASSERT_TRUE(PollUntil([&] { return blocker.Progress().batches > 0; }));

  // Submit order: loose deadline, no deadline, tight deadline. EDF
  // within the (batch) class must run them tight -> loose -> none.
  JobOptions loose_opts{window, "loose"};
  loose_opts.latency_target_s = 120;
  JobHandle loose = session.Submit(session.Range(50).Map("work", 2),
                                   loose_opts);
  JobHandle none = session.Submit(session.Range(50).Map("work", 2),
                                  JobOptions{window, "none"});
  JobOptions tight_opts{window, "tight"};
  tight_opts.latency_target_s = 60;
  JobHandle tight = session.Submit(session.Range(50).Map("work", 2),
                                   tight_opts);
  EXPECT_EQ(loose.phase(), JobPhase::kQueued);
  EXPECT_EQ(none.phase(), JobPhase::kQueued);
  EXPECT_EQ(tight.phase(), JobPhase::kQueued);

  blocker.Cancel();
  (void)blocker.Wait();
  const auto tight_report = tight.Wait();
  ASSERT_TRUE(tight_report.ok()) << tight_report.status();
  const auto loose_report = loose.Wait();
  ASSERT_TRUE(loose_report.ok()) << loose_report.status();
  const auto none_report = none.Wait();
  ASSERT_TRUE(none_report.ok()) << none_report.status();
  // Queue wait reveals run order: each later job's wait additionally
  // covers every earlier run. tight < loose < none despite tight being
  // submitted last and none before it.
  EXPECT_LT(tight_report->queue_seconds, loose_report->queue_seconds);
  EXPECT_LT(loose_report->queue_seconds, none_report->queue_seconds);
}

TEST(DeadlineSchedTest, ExpiredQueuedDeadlineIsShed) {
  Session session = MakeSession();
  RunOptions window;
  window.max_seconds = 60;
  JobHandle blocker = session.Submit(session.Range(1 << 30).Map("work", 2),
                                     JobOptions{window, "blocker"});
  ASSERT_TRUE(PollUntil([&] { return blocker.Progress().batches > 0; }));

  // A 75ms target behind an unbounded blocker is hopeless: the
  // scheduler's sweep must shed it from the queue rather than admit a
  // guaranteed miss once the blocker finishes. The scheduler sleeps
  // until the earliest queued deadline, so the shed lands on time.
  JobOptions doomed_opts{window, "doomed"};
  doomed_opts.latency_target_s = 0.075;
  JobHandle doomed = session.Submit(session.Range(50).Map("work", 2),
                                    doomed_opts);
  const auto report = doomed.Wait();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(report.status().message().find("shed"), std::string::npos)
      << report.status();
  EXPECT_EQ(doomed.phase(), JobPhase::kFailed);
  // A never-run job's queue time ends at its terminal timestamp: the
  // shed itself, stamped by the scheduler.
  const double shed_at = doomed.Progress().queue_seconds;
  EXPECT_GE(shed_at, 0.075);
  EXPECT_LT(shed_at, 0.075 + 0.010);

  blocker.Cancel();
  (void)blocker.Wait();
}

TEST(DeadlineSchedTest, GenerousDeadlineIsNotShed) {
  // The shed sweep must only fire on expired deadlines: a queued job
  // with a comfortable target runs to completion once admitted.
  Session session = MakeSession();
  RunOptions window;
  window.max_seconds = 60;
  JobHandle blocker = session.Submit(session.Range(200).Map("work", 2),
                                     JobOptions{window, "blocker"});
  JobOptions opts{window, "patient"};
  opts.latency_target_s = 300;
  JobHandle patient = session.Submit(session.Range(50).Map("work", 2), opts);
  ASSERT_TRUE(blocker.Wait().ok());
  const auto report = patient.Wait();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(patient.phase(), JobPhase::kDone);
}

}  // namespace
}  // namespace plumber
