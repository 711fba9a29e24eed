// Microbenchmarks of the discrete-event engine and its calendar queue.
//
// BM_EngineScheduleAndDrain runs at 1e3, 1e5 and 1e6 events: the queue's
// push/pop are O(1) amortized, so the per-event time (items_per_second)
// should stay flat across the three sizes.  CI gates on the 1e6 / 1e3
// ratio.

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace {

using istc::SimTime;

void BM_EngineScheduleAndDrain(benchmark::State& state) {
  const auto n = static_cast<SimTime>(state.range(0));
  for (auto _ : state) {
    istc::sim::Engine eng;
    eng.reserve_events(static_cast<std::size_t>(n));
    long sink = 0;
    for (SimTime t = 0; t < n; ++t) {
      eng.schedule(t, [&sink] { ++sink; });
    }
    eng.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleAndDrain)->Arg(1000)->Arg(100000)->Arg(1000000);

// The steady-state shape of a site replay: every event a typed job event
// dispatched through the JobEventSink vtable, no callbacks at all.
void BM_EngineTypedJobStream(benchmark::State& state) {
  struct CountingSink final : istc::sim::JobEventSink {
    long submits = 0;
    long finishes = 0;
    void job_submit(std::uint32_t) override { ++submits; }
    void job_finish(std::uint32_t) override { ++finishes; }
  };
  const auto n = static_cast<SimTime>(state.range(0));
  for (auto _ : state) {
    istc::sim::Engine eng;
    CountingSink sink;
    eng.set_job_sink(&sink);
    eng.reserve_events(static_cast<std::size_t>(2 * n));
    for (SimTime t = 0; t < n; ++t) {
      eng.schedule_job_submit(t, static_cast<std::uint32_t>(t));
      eng.schedule_job_finish(t + 50, static_cast<std::uint32_t>(t));
    }
    eng.run();
    benchmark::DoNotOptimize(sink.finishes);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_EngineTypedJobStream)->Arg(100000);

void BM_EngineSameTimestampBatch(benchmark::State& state) {
  // Many events at one timestamp: one quiescent pass per step.
  const auto n = static_cast<SimTime>(state.range(0));
  for (auto _ : state) {
    istc::sim::Engine eng;
    long hook_calls = 0;
    eng.on_quiescent([&hook_calls](SimTime) { ++hook_calls; });
    for (SimTime i = 0; i < n; ++i) eng.schedule(42, [] {});
    eng.run();
    benchmark::DoNotOptimize(hook_calls);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineSameTimestampBatch)->Arg(10000);

// Deliberately the event core's worst case: a recursive chain needs a
// self-referential callable, and copying a std::function into the queue
// boxes it (one allocation per link).  Steady-state simulation code never
// takes this path — it exists to keep the fallback's cost visible.
void BM_EngineSelfPerpetuatingChain(benchmark::State& state) {
  const long links = state.range(0);
  for (auto _ : state) {
    istc::sim::Engine eng;
    long count = 0;
    std::function<void()> link = [&] {
      if (++count < links) eng.schedule_in(1, link);
    };
    eng.schedule(0, link);
    eng.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * links);
}
BENCHMARK(BM_EngineSelfPerpetuatingChain)->Arg(100000);

// End-to-end: the continual-harvest co-simulation (the heaviest scenario
// class).  Wall ms is the event core's share of a real experiment plus
// everything else it drives.
void BM_ContinualHarvestEventCore(benchmark::State& state) {
  std::uint64_t seed = 400;
  std::uint64_t heap_allocs = 0;
  for (auto _ : state) {
    istc::trace::Tracer tracer(istc::trace::TraceMode::kCountersOnly);
    istc::core::Scenario sc;
    sc.site = istc::cluster::Site::kBlueMountain;
    sc.log_seed = seed++;  // avoid the process-wide cache
    sc.project = istc::core::ProjectSpec::continual_stream(
        32, 120, istc::cluster::site_span(sc.site));
    sc.tracer = &tracer;
    const auto run = istc::core::run_scenario(sc);
    benchmark::DoNotOptimize(run.records.size());
    heap_allocs += run.trace.engine_heap_allocations;
  }
  state.counters["queue_heap_allocs"] = benchmark::Counter(
      static_cast<double>(heap_allocs) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ContinualHarvestEventCore)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
