// Run-fork determinism: a fork taken mid-run and advanced to the end must
// be bit-identical to the same scenario simulated from scratch — same
// records, same kills, same sim_end, same RunReport.  This is the
// contract that lets sweep benches simulate a shared prefix once and fork
// per variant (bench/extension_faults.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/downtime.hpp"
#include "core/driver.hpp"
#include "core/experiment.hpp"
#include "core/fork.hpp"
#include "fault/fault.hpp"
#include "metrics/report.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace istc::core {
namespace {

bool same_records(const std::vector<sched::JobRecord>& a,
                  const std::vector<sched::JobRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].job.id != b[i].job.id || a[i].job.cpus != b[i].job.cpus ||
        a[i].job.submit != b[i].job.submit || a[i].start != b[i].start ||
        a[i].end != b[i].end) {
      return false;
    }
  }
  return true;
}

void expect_identical(const sched::RunResult& a, const sched::RunResult& b) {
  EXPECT_EQ(a.sim_end, b.sim_end);
  EXPECT_EQ(a.span, b.span);
  EXPECT_TRUE(same_records(a.records, b.records));
  EXPECT_TRUE(same_records(a.killed, b.killed));
}

Scenario fast_scenario() {
  Scenario s;
  s.site = cluster::Site::kRoss;  // smallest canonical site = fastest run
  s.project = ProjectSpec::continual_stream(
      32, 458, cluster::site_span(cluster::Site::kRoss));
  return s;
}

// The core contract: fork at T, drain both sides, get the same answer as
// never having forked.  Exercised at several fork points, including one
// past most of the run.
TEST(ForkDeterminism, ForkMatchesFromScratchAtSeveralTimes) {
  const Scenario scenario = fast_scenario();
  const sched::RunResult scratch = run_scenario(scenario);
  const SimTime span = cluster::site_span(scenario.site);
  for (const double frac : {0.25, 0.75}) {
    SimRun prefix(scenario);
    prefix.run_until(static_cast<SimTime>(static_cast<double>(span) * frac));
    std::unique_ptr<SimRun> forked = prefix.fork();
    // The fork finishes first: its result must not depend on whether the
    // source has advanced past the fork point yet.
    expect_identical(forked->finish(), scratch);
    expect_identical(prefix.finish(), scratch);
  }
}

// Two forks from one prefix are fully independent: giving one of them a
// fault process must not perturb the other.
TEST(ForkDeterminism, SiblingForksAreIsolated) {
  const Scenario scenario = fast_scenario();
  const sched::RunResult scratch = run_scenario(scenario);
  const SimTime span = cluster::site_span(scenario.site);
  const SimTime t0 = span / 2;

  SimRun prefix(scenario);
  prefix.run_until(t0);
  std::unique_ptr<SimRun> clean = prefix.fork();
  std::unique_ptr<SimRun> faulted = prefix.fork();

  fault::FaultSpec faults;
  faults.crash_mtbf = 30 * kSecondsPerHour;
  faults.node_mtbf = 15 * kSecondsPerHour;
  faults.node_cpus = 256;
  faults.start = faulted->now();
  faulted->add_faults(faults);
  const sched::RunResult faulted_result = faulted->finish();
  EXPECT_GT(faulted->injector()->stats().crashes +
                faulted->injector()->stats().node_failures,
            0u);

  expect_identical(clean->finish(), scratch);
  expect_identical(prefix.finish(), scratch);
  // The faulted fork genuinely diverged (else the isolation check above
  // proves nothing).
  EXPECT_FALSE(same_records(faulted_result.records, scratch.records));
}

// The sweep-bench shape: both arms run the fault-free prefix to T0 and
// construct the injector there, one via fork one from scratch, so event
// sequence numbers line up and the results are bit-identical.
TEST(ForkDeterminism, FaultedForkMatchesScratchRunWithSameFaultStart) {
  const Scenario scenario = fast_scenario();
  const SimTime span = cluster::site_span(scenario.site);
  const SimTime t0 = (span / 4) * 3;
  fault::FaultSpec faults;
  faults.crash_mtbf = 30 * kSecondsPerHour;
  faults.start = t0;

  SimRun prefix(scenario);
  prefix.run_until(t0);
  std::unique_ptr<SimRun> forked = prefix.fork();
  forked->add_faults(faults);
  const sched::RunResult via_fork = forked->finish();

  SimRun scratch(scenario);
  scratch.run_until(t0);
  scratch.add_faults(faults);
  const sched::RunResult via_scratch = scratch.finish();

  expect_identical(via_fork, via_scratch);
  EXPECT_EQ(forked->injector()->stats().crashes,
            scratch.injector()->stats().crashes);
  EXPECT_EQ(forked->injector()->stats().native_resubmits,
            scratch.injector()->stats().native_resubmits);
}

// RunReport equality: ingesting the forked and from-scratch results into
// fresh metrics yields byte-identical deterministic reports.
TEST(ForkDeterminism, RunReportsAreByteIdentical) {
  const Scenario scenario = fast_scenario();
  const sched::RunResult scratch = run_scenario(scenario);

  SimRun prefix(scenario);
  prefix.run_until(cluster::site_span(scenario.site) / 2);
  const sched::RunResult via_fork = prefix.fork()->finish();

  const auto report_of = [](const sched::RunResult& r) {
    metrics::RunMetrics m;
    m.ingest(r);
    std::ostringstream out;
    metrics::ReportOptions opts;
    opts.include_wall_clock = false;
    metrics::write_run_report(out, r, m, opts);
    return out.str();
  };
  EXPECT_EQ(report_of(via_fork), report_of(scratch));
}

// Forks start unobserved, but a tracer attached post-fork sees the rest
// of the run without perturbing it.
TEST(ForkDeterminism, PostForkTracerIsScheduleNeutral) {
  const Scenario scenario = fast_scenario();
  const sched::RunResult scratch = run_scenario(scenario);

  SimRun prefix(scenario);
  prefix.run_until(cluster::site_span(scenario.site) / 2);
  std::unique_ptr<SimRun> forked = prefix.fork();
  trace::Tracer tracer(trace::TraceMode::kCountersOnly);
  forked->set_tracer(&tracer);
  const sched::RunResult traced = forked->finish();
  expect_identical(traced, scratch);
  EXPECT_GT(tracer.counters().gate_decisions, 0u);
}

// ---------------------------------------------------------------------------
// Golden pin.  The miniature from tests/trace/test_determinism.cpp is
// rebuilt here by hand (it is not a Scenario), forked mid-run through the
// raw clone constructors, and its drained fork must hit the very same
// golden schedule hash the determinism suite pins.  A fork is not allowed
// to be merely self-consistent — it must reproduce the canonical schedule.

constexpr SimTime kMiniSpan = 6000;

std::vector<workload::Job> random_natives(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<workload::Job> jobs;
  SimTime submit = 0;
  for (workload::JobId id = 0; id < 150; ++id) {
    submit += static_cast<SimTime>(rng.below(80));
    workload::Job j;
    j.id = id;
    j.submit = submit;
    j.cpus = 1 + static_cast<int>(rng.below(32));
    j.runtime = 20 + static_cast<Seconds>(rng.below(400));
    j.estimate = j.runtime * (1 + static_cast<Seconds>(rng.below(4)));
    j.user = static_cast<workload::UserId>(rng.below(5));
    jobs.push_back(j);
  }
  return jobs;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_run(const sched::RunResult& run) {
  // Same (nonstandard) offset basis as tests/trace/test_determinism.cpp —
  // the pin below is only comparable if the hash matches digit for digit.
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& r : run.records) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.id));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.start));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.end));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.cpus));
  }
  for (const auto& r : run.killed) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.id));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.start));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.end));
  }
  h = fnv1a_u64(h, static_cast<std::uint64_t>(run.sim_end));
  return h;
}

TEST(ForkDeterminism, MiniatureForkHitsGoldenScheduleHash) {
  sim::Engine eng;
  cluster::DowntimeCalendar cal({{2000, 2400}, {4500, 4800}});
  cluster::Machine machine(
      {.name = "determinism-mini", .site = "", .queue_system = "",
       .cpus = 64, .clock_ghz = 1.0},
      cal);
  sched::PolicySpec policy;
  policy.preempt_interstitial = true;
  sched::BatchScheduler s(eng, machine, policy);
  for (const auto& j : random_natives(42)) s.submit(j);
  ProjectSpec spec = ProjectSpec::continual_stream(8, 120, kMiniSpan);
  spec.recovery = PreemptionRecovery::kCheckpoint;
  InterstitialDriver driver(s, spec, 10000);

  while (eng.next_event_time() <= 3000) eng.step();

  // Fork through the raw clone constructors, in stack order.
  sim::Engine eng2;
  eng2.adopt_state(eng);
  sched::BatchScheduler s2(eng2, s);
  InterstitialDriver driver2(s2, driver);

  eng2.run();
  EXPECT_EQ(hash_run(s2.take_result(kMiniSpan)), 0x4cb3857a75f8d6bfull);
  // The abandoned source still drains to the same schedule.
  eng.run();
  EXPECT_EQ(hash_run(s.take_result(kMiniSpan)), 0x4cb3857a75f8d6bfull);
}

}  // namespace
}  // namespace istc::core
