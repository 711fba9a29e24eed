#include "sched/pipeline.hpp"

#include <gtest/gtest.h>

#include <map>

#include "obs/profiler.hpp"
#include "sched/scheduler.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace istc::sched {
namespace {

using workload::Job;

cluster::Machine machine_of(int cpus) {
  return cluster::Machine(
      {.name = "m", .site = "", .queue_system = "", .cpus = cpus,
       .clock_ghz = 1.0},
      {});
}

Job mk(workload::JobId id, SimTime submit, int cpus, Seconds run,
       Seconds est = 0) {
  Job j;
  j.id = id;
  j.user = static_cast<workload::UserId>(id % 5);
  j.group = static_cast<workload::GroupId>(id % 2);
  j.submit = submit;
  j.cpus = cpus;
  j.runtime = run;
  j.estimate = est ? est : run;
  return j;
}

void submit_random_burst(BatchScheduler& s, int jobs, std::uint64_t seed) {
  Rng rng(seed);
  SimTime submit = 0;
  for (workload::JobId id = 0; id < static_cast<workload::JobId>(jobs); ++id) {
    submit += static_cast<SimTime>(rng.below(50));
    const auto runtime = 15 + static_cast<Seconds>(rng.below(250));
    s.submit(mk(id, submit, 1 + static_cast<int>(rng.below(10)), runtime,
                runtime * (1 + static_cast<Seconds>(rng.below(3)))));
  }
}

TEST(Pipeline, BuildsFourStagesInFixedOrder) {
  const auto stages = build_pipeline(BackfillMode::kEasy, false);
  ASSERT_EQ(stages.size(), static_cast<std::size_t>(kNumPassStages));
  EXPECT_EQ(stages[0]->kind(), StageKind::kPriority);
  EXPECT_EQ(stages[1]->kind(), StageKind::kDispatch);
  EXPECT_EQ(stages[2]->kind(), StageKind::kBackfill);
  EXPECT_EQ(stages[3]->kind(), StageKind::kGate);
  EXPECT_STREQ(stages[0]->name(), "priority");
  EXPECT_STREQ(stages[1]->name(), "dispatch");
  EXPECT_STREQ(stages[2]->name(), "backfill");
  EXPECT_STREQ(stages[3]->name(), "gate");
}

TEST(Pipeline, EveryStageRunsOncePerPass) {
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler s(eng, machine_of(16), policy);
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);
  submit_random_burst(s, 30, 21);
  eng.run();
  const auto& stages = s.pipeline();
  ASSERT_EQ(stages.size(), static_cast<std::size_t>(kNumPassStages));
  const auto& sum = tracer.summary();
  for (const auto& stage : stages) {
    EXPECT_EQ(sum.stage_runs[static_cast<int>(stage->kind())],
              s.stats().passes)
        << stage->name();
  }
  s.take_result(10000);
}

TEST(Pipeline, PriorityOrderReusedBetweenLedgerCharges) {
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler s(eng, machine_of(12), policy);
  // A deep queue on a small machine: many passes see an unchanged pending
  // set between completions (charges), so the sorted order must be reused.
  submit_random_burst(s, 60, 33);
  eng.run();
  const auto& st = s.stats();
  EXPECT_GT(st.priority_reuses, 0u);
  EXPECT_GT(st.priority_recomputes, 0u);
  // Every pass with a non-empty queue either recomputed or reused.
  EXPECT_LE(st.priority_recomputes + st.priority_reuses, st.passes);
  s.take_result(10000);
}

TEST(Pipeline, StageTimersLandInTraceSummaryWhenCounting) {
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler s(eng, machine_of(16), policy);
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  s.set_tracer(&tracer);
  submit_random_burst(s, 30, 55);
  eng.run();
  const auto& sum = tracer.summary();
  EXPECT_GT(sum.sched_passes, 0u);
  for (int i = 0; i < trace::TraceSummary::kNumStages; ++i) {
    EXPECT_EQ(sum.stage_runs[i], sum.sched_passes) << "stage " << i;
  }
  // The priority cache counters mirror the scheduler's own stats.
  EXPECT_EQ(sum.priority_recomputes, s.stats().priority_recomputes);
  EXPECT_EQ(sum.priority_reuses, s.stats().priority_reuses);
  s.take_result(10000);
}

TEST(Pipeline, UntracedRunsRecordNoStageTime) {
  // ScopedPassTimer's contract extends to stages: without a counting
  // tracer and with obs off the clock is never read, so no stage time
  // reaches the profiler.
  obs::reset();
  ASSERT_FALSE(obs::enabled());
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler s(eng, machine_of(16), policy);
  submit_random_burst(s, 20, 77);
  eng.run();
  EXPECT_GT(s.stats().passes, 0u);
  EXPECT_TRUE(obs::profile_snapshot().empty());
  s.take_result(10000);
}

TEST(Pipeline, SubmissionInvalidatesCachedOrder) {
  // A newly submitted job must enter the next pass's sort: two equal jobs
  // from the same principal start in submit order even though the second
  // arrives after the order was first established.
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler s(eng, machine_of(4), policy);
  s.submit(mk(0, 0, 4, 100));   // occupies the machine
  s.submit(mk(1, 10, 4, 50));   // queues; order cached with just job 1
  s.submit(mk(2, 20, 4, 50));   // queues behind it after the cache formed
  eng.run();
  std::map<workload::JobId, SimTime> starts;
  for (const auto& r : s.take_result(1000).records) {
    starts[r.job.id] = r.start;
  }
  EXPECT_EQ(starts.at(1), 100);
  EXPECT_EQ(starts.at(2), 150);
}

}  // namespace
}  // namespace istc::sched
