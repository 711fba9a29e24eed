// Macro-scale benchmarks: full site simulations per iteration, reported in
// wall milliseconds (these dominate every experiment driver's runtime).

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "trace/tracer.hpp"

namespace {

using istc::cluster::Site;

void BM_NativeOnlySimulation(benchmark::State& state) {
  const auto site = static_cast<Site>(state.range(0));
  std::uint64_t seed = 100;
  for (auto _ : state) {
    istc::core::Scenario sc;
    sc.site = site;
    sc.log_seed = seed++;  // avoid the process-wide cache
    const auto run = istc::core::run_scenario(sc);
    benchmark::DoNotOptimize(run.records.size());
  }
}
BENCHMARK(BM_NativeOnlySimulation)
    ->Arg(static_cast<int>(Site::kRoss))
    ->Arg(static_cast<int>(Site::kBlueMountain))
    ->Arg(static_cast<int>(Site::kBluePacific))
    ->Unit(benchmark::kMillisecond);

void BM_ContinualCoSimulation(benchmark::State& state) {
  // The heaviest scenario class: a full continual co-simulation, hundreds
  // of thousands of interstitial jobs.
  std::uint64_t seed = 200;
  for (auto _ : state) {
    istc::core::Scenario sc;
    sc.site = Site::kBlueMountain;
    sc.log_seed = seed++;
    sc.project = istc::core::ProjectSpec::continual_stream(
        32, 120, istc::cluster::site_span(sc.site));
    const auto run = istc::core::run_scenario(sc);
    benchmark::DoNotOptimize(run.records.size());
  }
}
BENCHMARK(BM_ContinualCoSimulation)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Scheduler pass cost on the heaviest pass workload: the continual
// co-simulation, where hundreds of jobs run at every pass.  `pass_us` is
// the counter to track — wall ms also includes event-queue and
// workload-generation time.
void BM_ContinualPassWorkload(benchmark::State& state) {
  std::uint64_t seed = 300;
  std::uint64_t pass_us = 0;
  std::uint64_t passes = 0;
  for (auto _ : state) {
    istc::trace::Tracer tracer(istc::trace::TraceMode::kCountersOnly);
    istc::core::Scenario sc;
    sc.site = Site::kBlueMountain;
    sc.log_seed = seed++;
    sc.project = istc::core::ProjectSpec::continual_stream(
        32, 120, istc::cluster::site_span(sc.site));
    sc.tracer = &tracer;
    const auto run = istc::core::run_scenario(sc);
    benchmark::DoNotOptimize(run.records.size());
    pass_us += run.trace.sched_pass_us_total;
    passes += run.trace.sched_passes;
  }
  state.counters["pass_us"] = benchmark::Counter(
      static_cast<double>(pass_us) / static_cast<double>(state.iterations()));
  state.counters["passes"] = benchmark::Counter(
      static_cast<double>(passes) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ContinualPassWorkload)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_OmniscientPack(benchmark::State& state) {
  const auto spec = istc::core::ProjectSpec::paper(
      static_cast<std::size_t>(state.range(0)), 32, 120);
  int rep = 0;
  for (auto _ : state) {
    const auto s = istc::core::omniscient_makespans(
        Site::kBlueMountain, spec, 1,
        0xBEEF + static_cast<std::uint64_t>(rep++));
    benchmark::DoNotOptimize(s.hours.size());
  }
}
BENCHMARK(BM_OmniscientPack)->Arg(2000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
