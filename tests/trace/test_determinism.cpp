// The trace contract that makes traces diffable artifacts: events are
// keyed by (SimTime, seq) exactly like the simulator's event queue, wall
// clock readings never enter the event stream, and exporters sort before
// writing.  Two runs with the same seed must therefore produce
// byte-identical JSONL — and attaching a tracer must not perturb the
// schedule at all.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/downtime.hpp"
#include "core/driver.hpp"
#include "metrics/report.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace istc::trace {
namespace {

// A miniature that exercises every event kind: downtime calendar
// (downtime_begin/end), native churn with overestimates (submit, start,
// finish, reservations made/honored/violated, fair-share recomputes),
// a continual interstitial stream behind the gate (gate_decision,
// rejected-by-gate), and native preemption with checkpoint recovery
// (job_kill).
constexpr SimTime kSpan = 6000;

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
    // Paper-style overestimates, occasionally accurate.
    j.estimate = j.runtime * (1 + static_cast<Seconds>(rng.below(4)));
    j.user = static_cast<workload::UserId>(rng.below(5));
    jobs.push_back(j);
  }
  return jobs;
}

sched::RunResult run_miniature(std::uint64_t seed, Tracer* tracer,
                               metrics::RunMetrics* metrics = nullptr) {
  sim::Engine eng;
  cluster::DowntimeCalendar cal({{2000, 2400}, {4500, 4800}});
  cluster::Machine machine(
      {.name = "determinism-mini", .site = "", .queue_system = "",
       .cpus = 64, .clock_ghz = 1.0},
      cal);
  sched::PolicySpec policy;  // priority + EASY backfill + fair share
  policy.preempt_interstitial = true;
  sched::BatchScheduler s(eng, machine, policy);
  if (tracer != nullptr) s.set_tracer(tracer);
  for (const auto& j : random_natives(seed)) s.submit(j);
  core::ProjectSpec spec = core::ProjectSpec::continual_stream(8, 120, kSpan);
  spec.recovery = core::PreemptionRecovery::kCheckpoint;
  core::InterstitialDriver driver(s, spec, 10000);
  if (metrics != nullptr) metrics->attach(eng, s, kSpan);
  eng.run();
  return s.take_result(kSpan);
}

std::string jsonl_of(std::uint64_t seed) {
  Tracer tracer(TraceMode::kFull, 4u << 20);
  run_miniature(seed, &tracer);
  EXPECT_EQ(tracer.dropped(), 0u);
  std::ostringstream out;
  write_jsonl(out, tracer);
  return out.str();
}

TEST(TraceDeterminism, SameSeedProducesByteIdenticalJsonl) {
#if !ISTC_TRACING_ENABLED
  GTEST_SKIP() << "tracing compiled out (ISTC_TRACING=OFF)";
#endif
  const std::string a = jsonl_of(42);
  const std::string b = jsonl_of(42);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The miniature must actually exercise the interesting kinds, or the
  // byte-compare proves less than it claims.
  for (const char* kind :
       {"job_submit", "job_start", "job_finish", "job_kill",
        "reservation_made", "gate_decision", "fairshare_recompute",
        "downtime_begin", "downtime_end"}) {
    EXPECT_NE(a.find(std::string("\"kind\":\"") + kind + "\""),
              std::string::npos)
        << kind;
  }
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_run(const sched::RunResult& run) {
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

std::uint64_t hash_str(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Golden pins: FNV-1a hashes of the miniature's schedule and JSONL trace.
// These freeze the simulator's observable behavior across refactors — a
// change here is a behavior change, not noise, and needs the same scrutiny
// as a changed experiment table.  Regenerate by printing hash_run /
// hash_str on the values below after an intentional change.
TEST(TraceDeterminism, MiniatureScheduleMatchesGolden) {
  const auto run = run_miniature(42, nullptr);
  EXPECT_EQ(hash_run(run), 0x4cb3857a75f8d6bfull);
}

TEST(TraceDeterminism, MiniatureJsonlMatchesGolden) {
#if !ISTC_TRACING_ENABLED
  GTEST_SKIP() << "tracing compiled out (ISTC_TRACING=OFF)";
#endif
  EXPECT_EQ(hash_str(jsonl_of(42)), 0x36432d51afb41bcaull);
}

TEST(TraceDeterminism, EngineEventCoreGaugesReachSummary) {
#if !ISTC_TRACING_ENABLED
  GTEST_SKIP() << "tracing compiled out (ISTC_TRACING=OFF)";
#endif
  // The engine mirrors its event-core gauges (queue high-water mark,
  // largest same-timestamp batch, scheduled-by-kind tallies) into the
  // counting tracer once per drained timestep.
  Tracer tracer(TraceMode::kCountersOnly);
  run_miniature(42, &tracer);
  const auto& s = tracer.summary();
  EXPECT_GT(s.engine_peak_queue_depth, 0u);
  EXPECT_GT(s.engine_max_timestep_batch, 0u);
  // The miniature schedules every typed kind: 150 native submits, a
  // finish per started job, and a wake per scheduler arm.
  EXPECT_EQ(s.engine_events_job_submit, 150u);
  EXPECT_GT(s.engine_events_job_finish, 0u);
  EXPECT_GT(s.engine_events_wake, 0u);
  // The whole scheduler stack runs on typed events: nothing in the
  // miniature needs the type-erased callback fallback.
  EXPECT_EQ(s.engine_events_callback, 0u);
}

// Telemetry with sampling disabled is a pure observer: the golden
// schedule hash — including sim_end — is untouched.
TEST(TraceDeterminism, MetricsAttachedSamplerOffMatchesGolden) {
  metrics::RunMetrics m;  // default config: interval 0, no sampler
  const auto run = run_miniature(42, nullptr, &m);
  EXPECT_EQ(hash_run(run), 0x4cb3857a75f8d6bfull);
  EXPECT_EQ(m.sampler(), nullptr);
  m.ingest(run);
  const auto* c = m.registry().find_counter("jobs_native_completed");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, run.native_count());
}

// With the sampler on, sample ticks are hook-transparent (the pending
// sample is a scalar deadline beside the event queue, never a queue
// entry): the schedule — every record and kill — is bit-identical to the
// bare run.  Only sim_end may move (the engine drains sample ticks out to
// the sampler stop), which is why this compares records rather than the
// golden hash.
TEST(TraceDeterminism, SamplingIsScheduleNeutral) {
  const auto bare = run_miniature(42, nullptr);
  auto same = [](const sched::JobRecord& x, const sched::JobRecord& y) {
    return x.job.id == y.job.id && x.job.cpus == y.job.cpus &&
           x.job.runtime == y.job.runtime && x.job.submit == y.job.submit &&
           x.start == y.start && x.end == y.end &&
           x.interstitial() == y.interstitial();
  };
  metrics::SamplerConfig cfg;
  cfg.interval = 60;
  metrics::RunMetrics m(cfg);
  const auto sampled = run_miniature(42, nullptr, &m);
  ASSERT_NE(m.sampler(), nullptr);
  // kSpan / 60 ticks, the last exactly on the stop.
  EXPECT_EQ(m.sampler()->rows().size(), 100u);
  ASSERT_EQ(sampled.records.size(), bare.records.size());
  for (std::size_t i = 0; i < sampled.records.size(); ++i) {
    EXPECT_TRUE(same(sampled.records[i], bare.records[i])) << "record " << i;
  }
  ASSERT_EQ(sampled.killed.size(), bare.killed.size());
  for (std::size_t i = 0; i < sampled.killed.size(); ++i) {
    EXPECT_TRUE(same(sampled.killed[i], bare.killed[i])) << "kill " << i;
  }
}

// Pass setup is timed into its own slot, so the stage timers partition
// the pass total exactly — no pass microsecond is unattributed.
TEST(TraceDeterminism, StageTimersSumToPassTotal) {
#if !ISTC_TRACING_ENABLED
  GTEST_SKIP() << "tracing compiled out (ISTC_TRACING=OFF)";
#endif
  Tracer tracer(TraceMode::kCountersOnly);
  run_miniature(42, &tracer);
  const auto s = tracer.summary();
  ASSERT_GT(s.sched_passes, 0u);
  std::uint64_t sum = s.stage_setup_us;
  for (int i = 0; i < TraceSummary::kNumStages; ++i) sum += s.stage_us[i];
  EXPECT_EQ(sum, s.sched_pass_us_total);
}

TEST(TraceDeterminism, DifferentSeedsProduceDifferentTraces) {
#if !ISTC_TRACING_ENABLED
  GTEST_SKIP() << "tracing compiled out (ISTC_TRACING=OFF)";
#endif
  // Sanity that the byte-compare above can discriminate at all.
  EXPECT_NE(jsonl_of(42), jsonl_of(43));
}

TEST(TraceDeterminism, ChromeExportIsDeterministicToo) {
  auto chrome_of = [](std::uint64_t seed) {
    Tracer tracer(TraceMode::kFull, 4u << 20);
    const auto run = run_miniature(seed, &tracer);
    std::ostringstream out;
    write_chrome_trace(out, tracer,
                       {.machine_name = run.machine.name,
                        .total_cpus = run.machine.cpus});
    return out.str();
  };
  EXPECT_EQ(chrome_of(7), chrome_of(7));
}

TEST(TraceDeterminism, TracingObservesButNeverPerturbs) {
  // The schedule with a full tracer attached must be bit-identical to the
  // untraced schedule: same records, same kills, in the same order.
  Tracer tracer(TraceMode::kFull, 4u << 20);
  const auto traced = run_miniature(42, &tracer);
  const auto bare = run_miniature(42, nullptr);

  auto same = [](const sched::JobRecord& x, const sched::JobRecord& y) {
    return x.job.id == y.job.id && x.job.cpus == y.job.cpus &&
           x.job.runtime == y.job.runtime && x.job.submit == y.job.submit &&
           x.start == y.start && x.end == y.end &&
           x.interstitial() == y.interstitial();
  };
  ASSERT_EQ(traced.records.size(), bare.records.size());
  for (std::size_t i = 0; i < traced.records.size(); ++i) {
    EXPECT_TRUE(same(traced.records[i], bare.records[i])) << "record " << i;
  }
  ASSERT_EQ(traced.killed.size(), bare.killed.size());
  for (std::size_t i = 0; i < traced.killed.size(); ++i) {
    EXPECT_TRUE(same(traced.killed[i], bare.killed[i])) << "kill " << i;
  }
  EXPECT_EQ(traced.sim_end, bare.sim_end);

#if ISTC_TRACING_ENABLED
  // And the traced run's summary reflects real work.
  const auto s = tracer.summary();
  EXPECT_GT(s.events_recorded, 0u);
  EXPECT_GT(s.sched_passes, 0u);
  EXPECT_GT(s.gate_decisions, 0u);
#endif
}

}  // namespace
}  // namespace istc::trace
