#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace istc::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.finished());
}

TEST(Engine, RunsEventsInOrder) {
  Engine e;
  std::vector<SimTime> fired;
  e.schedule(20, [&] { fired.push_back(20); });
  e.schedule(10, [&] { fired.push_back(10); });
  e.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.events_processed(), 2u);
}

TEST(Engine, ScheduleInRelative) {
  Engine e;
  SimTime seen = -1;
  e.schedule(5, [&e, &seen] {
    e.schedule_in(10, [&e, &seen] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 15);
}

TEST(Engine, QuiescentHookOncePerTimestamp) {
  Engine e;
  std::vector<SimTime> hook_times;
  e.on_quiescent([&](SimTime t) { hook_times.push_back(t); });
  e.schedule(5, [] {});
  e.schedule(5, [] {});
  e.schedule(5, [] {});
  e.schedule(9, [] {});
  e.run();
  EXPECT_EQ(hook_times, (std::vector<SimTime>{5, 9}));
}

TEST(Engine, HookRunsAfterAllEventsAtTimestamp) {
  Engine e;
  int events_before_hook = 0;
  int counted_at_hook = -1;
  e.on_quiescent([&](SimTime) { counted_at_hook = events_before_hook; });
  for (int i = 0; i < 4; ++i) e.schedule(3, [&] { ++events_before_hook; });
  e.run();
  EXPECT_EQ(counted_at_hook, 4);
}

TEST(Engine, EventScheduledForNowByEventRunsThisStep) {
  Engine e;
  std::vector<int> order;
  e.schedule(5, [&] {
    order.push_back(1);
    e.schedule(5, [&] { order.push_back(2); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 5);
}

TEST(Engine, HookMaySchedulePresentAndFuture) {
  Engine e;
  int hook_calls = 0;
  bool future_ran = false;
  e.on_quiescent([&](SimTime t) {
    ++hook_calls;
    if (t == 1 && hook_calls == 1) {
      e.schedule(4, [&] { future_ran = true; });
    }
  });
  e.schedule(1, [] {});
  e.run();
  EXPECT_TRUE(future_ran);
  EXPECT_GE(hook_calls, 2);  // once at t=1, once at t=4
}

TEST(Engine, MultipleHooksInRegistrationOrder) {
  Engine e;
  std::vector<int> order;
  e.on_quiescent([&](SimTime) { order.push_back(1); });
  e.on_quiescent([&](SimTime) { order.push_back(2); });
  e.schedule(3, [] {});
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, RunUntilStopsAndResumes) {
  Engine e;
  std::vector<SimTime> fired;
  e.schedule(10, [&] { fired.push_back(10); });
  e.schedule(20, [&] { fired.push_back(20); });
  e.schedule(30, [&] { fired.push_back(30); });
  e.run(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_FALSE(e.finished());
  e.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Engine, RunUntilAdvancesClockToLimit) {
  Engine e;
  e.schedule(5, [] {});
  e.run(100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, StepProcessesOneTimestamp) {
  Engine e;
  int fired = 0;
  e.schedule(5, [&] { ++fired; });
  e.schedule(5, [&] { ++fired; });
  e.schedule(8, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 5);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(e.step());
}

TEST(Engine, ChainedSimulationDrains) {
  // A self-perpetuating chain that stops after N links.
  Engine e;
  int links = 0;
  std::function<void()> link = [&] {
    if (++links < 100) e.schedule_in(7, link);
  };
  e.schedule(0, link);
  e.run();
  EXPECT_EQ(links, 100);
  EXPECT_EQ(e.now(), 99 * 7);
}

TEST(Engine, EventsProcessedCounts) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule(i, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
}

TEST(Engine, RunWithEmptyQueueIsNoOp) {
  Engine e;
  e.run();
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.finished());
}

TEST(Engine, FinishedReflectsQueueState) {
  Engine e;
  e.schedule(5, [] {});
  EXPECT_FALSE(e.finished());
  e.run();
  EXPECT_TRUE(e.finished());
}

TEST(Engine, HookNotCalledWithoutEvents) {
  Engine e;
  int calls = 0;
  e.on_quiescent([&](SimTime) { ++calls; });
  e.run();
  EXPECT_EQ(calls, 0);
}

TEST(Engine, RunUntilExactEventTimeProcessesIt) {
  Engine e;
  bool fired = false;
  e.schedule(10, [&] { fired = true; });
  e.run(10);
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, ScheduleAtCurrentTimeBeforeRunWorks) {
  Engine e;
  bool fired = false;
  e.schedule(0, [&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(EngineDeath, SchedulingInThePastAborts) {
  Engine e;
  e.schedule(10, [] {});
  e.run();
  EXPECT_DEATH(e.schedule(5, [] {}), "precondition");
}
#endif

// -- typed event core ------------------------------------------------------

struct RecordingSink : JobEventSink {
  std::vector<std::pair<char, std::uint32_t>> log;  // ('s'|'f', arg)
  void job_submit(std::uint32_t index) override { log.push_back({'s', index}); }
  void job_finish(std::uint32_t id) override { log.push_back({'f', id}); }
};

TEST(EngineTyped, DispatchesJobEventsToSink) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.schedule_job_finish(20, 7);
  e.schedule_job_submit(10, 3);
  e.schedule_wake(15);
  e.run();
  EXPECT_EQ(sink.log, (std::vector<std::pair<char, std::uint32_t>>{
                          {'s', 3}, {'f', 7}}));
  EXPECT_EQ(e.events_processed(), 3u);  // the wake drains too
  EXPECT_EQ(e.now(), 20);
}

TEST(EngineTyped, WakeTriggersQuiescentHook) {
  Engine e;
  std::vector<SimTime> hook_times;
  e.on_quiescent([&](SimTime t) { hook_times.push_back(t); });
  e.schedule_wake(9);
  e.run();
  EXPECT_EQ(hook_times, (std::vector<SimTime>{9}));
}

TEST(EngineTyped, SteadyStateIsAllocationFree) {
  // Engine-level form of CalendarQueue.WarmedUpSteadyStateAllocatesNothing:
  // the first churn (job events, wakes, small trivially copyable
  // callbacks) warms the queue's buckets; an identical churn a whole
  // number of wheel laps later lands in the same bucket slots and
  // performs zero further queue heap allocations.
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  e.reserve_events(256);
  long fired = 0;
  const auto churn = [&](SimTime base) {
    for (SimTime t = base; t < base + 64; ++t) {
      e.schedule_job_submit(t, static_cast<std::uint32_t>(t - base));
      e.schedule_job_finish(t + 40, static_cast<std::uint32_t>(t - base));
      e.schedule_wake(t + 20);
      e.schedule(t + 10, [&fired] { ++fired; });
    }
    e.run();
  };
  churn(0);
  const std::uint64_t warm = e.stats().heap_allocations;
  churn(SimTime{65536} * 1024 * 4);
  EXPECT_EQ(e.stats().heap_allocations, warm);
  EXPECT_EQ(fired, 128);
  EXPECT_EQ(sink.log.size(), 256u);
}

TEST(EngineTyped, StatsTrackDepthBatchAndKinds) {
  Engine e;
  RecordingSink sink;
  e.set_job_sink(&sink);
  for (std::uint32_t i = 0; i < 5; ++i) e.schedule_job_finish(10, i);
  e.schedule_wake(10);
  e.schedule(3, [] {});
  e.run();
  const EngineStats& s = e.stats();
  EXPECT_EQ(s.peak_queue_depth, 7u);
  EXPECT_EQ(s.max_timestep_batch, 6u);  // the 6-event batch at t=10
  EXPECT_EQ(s.scheduled_by_type[static_cast<int>(EventType::kCallback)], 1u);
  EXPECT_EQ(s.scheduled_by_type[static_cast<int>(EventType::kJobFinish)], 5u);
  EXPECT_EQ(s.scheduled_by_type[static_cast<int>(EventType::kSchedulerWake)],
            1u);
  EXPECT_EQ(s.scheduled_by_type[static_cast<int>(EventType::kJobSubmit)], 0u);
}

TEST(EngineTyped, EventScheduledForNowFromCallbackCountsInBatch) {
  Engine e;
  int order = 0;
  e.schedule(5, [&e, &order] {
    ++order;
    e.schedule(5, [&order] { ++order; });
  });
  e.run();
  EXPECT_EQ(order, 2);
  EXPECT_EQ(e.stats().max_timestep_batch, 2u);
}

TEST(EngineTyped, AttachingCountersTracerNeverChangesEventsProcessed) {
  // Regression guard: tracing observes, never perturbs — the drained
  // event count must be identical with and without a tracer attached.
  auto run_once = [](trace::Tracer* tracer) {
    Engine e;
    if (tracer != nullptr) e.set_tracer(tracer);
    int chain = 0;
    std::function<void()> link = [&] {
      if (++chain < 50) e.schedule_in(3, link);
    };
    e.schedule(0, link);
    for (SimTime t = 0; t < 30; ++t) e.schedule_wake(t * 2);
    e.run();
    return e.events_processed();
  };
  const std::uint64_t bare = run_once(nullptr);
#if ISTC_TRACING_ENABLED
  trace::Tracer counters(trace::TraceMode::kCountersOnly);
  trace::Tracer full(trace::TraceMode::kFull);
  EXPECT_EQ(run_once(&counters), bare);
  EXPECT_EQ(run_once(&full), bare);
  EXPECT_EQ(counters.counters().engine_events_drained, bare);
#else
  EXPECT_GT(bare, 0u);
#endif
}

}  // namespace
}  // namespace istc::sim
