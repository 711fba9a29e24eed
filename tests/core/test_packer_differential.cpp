#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/omniscient.hpp"
#include "metrics/utilization.hpp"
#include "sched/resource_profile.hpp"
#include "util/rng.hpp"

/// \file test_packer_differential.cpp
/// The omniscient packer and the free-capacity build against the
/// algorithms they replaced, kept here as oracles:
///  - the packer that seeded one ResourceProfile with the whole free
///    function up front (one reserve per step) before the first fit;
///  - the busy step function built through a std::map of deltas;
///  - the downtime carve-out that inserted each window's bounds and then
///    zeroed its interior with a scan of every step.
/// The windowed packer must reproduce the whole batch list, not just the
/// makespan.

namespace istc::core {
namespace {

using Steps = std::vector<std::pair<SimTime, int>>;

// -- oracles ----------------------------------------------------------------

Steps busy_steps_oracle(std::span<const sched::JobRecord> records,
                        metrics::JobFilter filter) {
  std::map<SimTime, int> delta;
  for (const auto& r : records) {
    if (!metrics::passes(r, filter)) continue;
    if (r.end <= r.start) continue;
    delta[r.start] += r.job.cpus;
    delta[r.end] -= r.job.cpus;
  }
  Steps steps;
  steps.emplace_back(0, 0);
  int busy = 0;
  for (const auto& [t, d] : delta) {
    busy += d;
    if (steps.back().first == t) {
      steps.back().second = busy;
    } else {
      steps.emplace_back(t, busy);
    }
  }
  return steps;
}

Steps free_steps_oracle(std::span<const sched::JobRecord> records,
                        const cluster::Machine& machine) {
  const int capacity = machine.total_cpus();
  Steps steps;
  for (const auto& [t, b] :
       busy_steps_oracle(records, metrics::JobFilter::kNativeOnly)) {
    steps.emplace_back(t, capacity - b);
  }
  for (const auto& w : machine.downtime().windows()) {
    auto insert_point = [&](SimTime t) {
      auto it = std::lower_bound(
          steps.begin(), steps.end(), t,
          [](const auto& s, SimTime v) { return s.first < v; });
      if (it != steps.end() && it->first == t) return;
      steps.insert(it, {t, std::prev(it)->second});
    };
    if (w.start > steps.front().first) insert_point(w.start);
    insert_point(w.end);
    for (auto& [t, f] : steps) {
      if (t >= w.start && t < w.end) f = 0;
    }
  }
  return steps;
}

OmniscientResult pack_full_seed(const FreeCapacity& free,
                                const cluster::Machine& machine,
                                const ProjectSpec& spec,
                                SimTime project_start) {
  const Seconds r = spec.runtime_on(machine.spec());
  const int n = spec.cpus_per_job;
  sched::ResourceProfile profile(project_start, machine.total_cpus());
  const auto& steps = free.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const SimTime a = std::max(project_start, steps[i].first);
    const SimTime b =
        i + 1 < steps.size() ? std::max(project_start, steps[i + 1].first)
                             : kTimeInfinity;
    const int used = machine.total_cpus() - steps[i].second;
    if (b > a && used > 0) profile.reserve(a, b, used);
  }
  OmniscientResult result;
  std::size_t remaining = spec.total_jobs;
  SimTime t = project_start;
  SimTime last_end = project_start;
  while (remaining > 0) {
    t = profile.earliest_fit(n, r, t);
    auto batch = static_cast<std::size_t>(profile.min_free(t, t + r) / n);
    batch = std::min(batch, remaining);
    profile.reserve(t, t + r, static_cast<int>(batch) * n);
    remaining -= batch;
    last_end = std::max(last_end, t + r);
    result.batches.emplace_back(t, batch);
    result.jobs_placed += batch;
  }
  result.makespan = last_end - project_start;
  return result;
}

// -- random environments -----------------------------------------------------

cluster::Machine machine_of(int cpus, cluster::DowntimeCalendar cal) {
  return cluster::Machine(
      {.name = "m", .site = "", .queue_system = "", .cpus = cpus,
       .clock_ghz = 1.0},
      std::move(cal));
}

sched::JobRecord nrec(SimTime start, Seconds run, int cpus) {
  sched::JobRecord r;
  r.job.cpus = cpus;
  r.job.submit = start;
  r.job.runtime = run;
  r.job.estimate = run;
  r.start = start;
  r.end = start + run;
  return r;
}

/// Disjoint windows over [0, span + 20000): sometimes one at t = 0,
/// sometimes back to back, and always at least one past `span`.
cluster::DowntimeCalendar random_calendar(Rng& rng, SimTime span) {
  std::vector<cluster::DowntimeWindow> windows;
  SimTime t = rng.bernoulli(0.5) ? 0 : static_cast<SimTime>(rng.range(1, 9000));
  while (t < span + 20000) {
    const SimTime end = t + static_cast<SimTime>(rng.range(1, 4000));
    windows.push_back({t, end});
    const bool adjacent = rng.bernoulli(0.2);
    t = end + (adjacent ? 0 : static_cast<SimTime>(rng.range(1, 30000)));
  }
  return cluster::DowntimeCalendar(std::move(windows));
}

/// A feasible native schedule: random jobs kept only where they fit the
/// machine and touch no downtime window.
std::vector<sched::JobRecord> random_natives(
    Rng& rng, int cpus, const cluster::DowntimeCalendar& cal, int tries,
    SimTime span) {
  sched::ResourceProfile occupied(0, cpus);
  std::vector<sched::JobRecord> records;
  for (int i = 0; i < tries; ++i) {
    const auto start =
        static_cast<SimTime>(rng.below(static_cast<std::uint64_t>(span)));
    const auto run = static_cast<Seconds>(rng.range(1, 3000));
    const int c = static_cast<int>(rng.range(1, cpus));
    if (!cal.can_run(start, run)) continue;
    if (occupied.min_free(start, start + run) < c) continue;
    occupied.reserve(start, start + run, c);
    records.push_back(nrec(start, run, c));
  }
  return records;
}

// -- FreeCapacity / busy_step_function --------------------------------------

TEST(FreeCapacityDifferential, MatchesTheMapAndPerWindowCarveOut) {
  Rng rng(0xF7EE);
  for (int trial = 0; trial < 60; ++trial) {
    const int cpus = static_cast<int>(rng.range(1, 96));
    const SimTime span = static_cast<SimTime>(rng.range(1000, 200000));
    const auto cal = trial % 4 == 0 ? cluster::DowntimeCalendar{}
                                    : random_calendar(rng, span);
    const auto machine = machine_of(cpus, cal);
    auto records = random_natives(rng, cpus, cal,
                                  static_cast<int>(rng.range(0, 600)), span);
    // Interstitial records are filtered out of the native step function;
    // degenerate ones (end <= start) contribute nothing.
    if (!records.empty()) {
      sched::JobRecord inter = records.front();
      inter.job.klass = workload::JobClass::kInterstitial;
      records.push_back(inter);
      records.push_back(nrec(records.front().start, 0, 1));
    }

    ASSERT_EQ(metrics::busy_step_function(records, metrics::JobFilter::kAll),
              busy_steps_oracle(records, metrics::JobFilter::kAll))
        << "trial " << trial;
    ASSERT_EQ(
        metrics::busy_step_function(records, metrics::JobFilter::kNativeOnly),
        busy_steps_oracle(records, metrics::JobFilter::kNativeOnly))
        << "trial " << trial;
    ASSERT_EQ(FreeCapacity(records, machine).steps(),
              free_steps_oracle(records, machine))
        << "trial " << trial;
  }
}

TEST(FreeCapacityDifferential, WindowEdgeCases) {
  const std::vector<sched::JobRecord> recs{nrec(100, 50, 4), nrec(400, 100, 8),
                                           nrec(500, 20, 8)};
  const std::vector<std::vector<cluster::DowntimeWindow>> calendars{
      {{0, 50}},                         // at t = 0
      {{0, 100}},                        // ending on a busy step
      {{150, 200}, {200, 300}},          // back to back
      {{150, 400}, {520, 600}},          // bounds on busy steps
      {{1000, 1200}, {5000, 6000}},      // past the last busy step
      {{0, 10}, {10, 20}, {600, 700}},   // all of the above
  };
  for (const auto& windows : calendars) {
    const auto machine = machine_of(16, cluster::DowntimeCalendar(windows));
    EXPECT_EQ(FreeCapacity(recs, machine).steps(),
              free_steps_oracle(recs, machine));
  }
  EXPECT_EQ(metrics::busy_step_function({}, metrics::JobFilter::kAll),
            busy_steps_oracle({}, metrics::JobFilter::kAll));
}

// -- pack_omniscient ---------------------------------------------------------

/// Pack with both packers, expect identical results, return the windowed one.
OmniscientResult expect_same_pack(const FreeCapacity& free,
                                  const cluster::Machine& m,
                                  const ProjectSpec& spec, SimTime start) {
  const OmniscientResult got = pack_omniscient(free, m, spec, start);
  const OmniscientResult want = pack_full_seed(free, m, spec, start);
  EXPECT_EQ(got.batches, want.batches)
      << "start " << start << ", " << spec.total_jobs << " jobs x "
      << spec.cpus_per_job << " cpus";
  EXPECT_EQ(got.jobs_placed, want.jobs_placed);
  EXPECT_EQ(got.jobs_placed, spec.total_jobs);
  EXPECT_EQ(got.makespan, want.makespan);
  return got;
}

TEST(PackerDifferential, WindowedPackMatchesFullSeed) {
  Rng rng(0x9AC4);
  // The most free-capacity steps one pack crossed: the windowed packer
  // lays 128 per chunk, so packs must cross many chunk boundaries.
  std::size_t most_steps_crossed = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const int cpus = static_cast<int>(rng.range(2, 64));
    const SimTime span = 600000;
    const auto cal = random_calendar(rng, span);
    const auto machine = machine_of(cpus, cal);
    const auto records = random_natives(rng, cpus, cal, 8000, span);
    const FreeCapacity free(records, machine);
    const auto& steps = free.steps();

    std::vector<SimTime> starts{
        -3600,                                      // before the first step
        steps.back().first + rng.range(0, 5000),    // after the last step
        static_cast<SimTime>(rng.below(span)),
        static_cast<SimTime>(rng.below(span / 10)),
    };
    const auto& w = cal.windows()[rng.below(cal.windows().size())];
    const auto down = static_cast<std::uint64_t>(w.end - w.start);
    starts.push_back(w.start + static_cast<SimTime>(rng.below(down)));
    for (const SimTime start : starts) {
      // n = 1, n = capacity, and a width in between; job counts that leave
      // the last batch capped by the jobs remaining.
      for (const int n : {1, cpus, static_cast<int>(rng.range(1, cpus))}) {
        const auto jobs = static_cast<std::size_t>(rng.range(1, 12000 / n + 1));
        const auto run = static_cast<Seconds>(rng.range(1, 2500));
        const ProjectSpec spec = ProjectSpec::paper(jobs, n, run);
        const OmniscientResult got =
            expect_same_pack(free, machine, spec, start);
        const SimTime end = start + got.makespan;
        const auto crossed = std::count_if(
            steps.begin(), steps.end(),
            [&](const auto& s) { return s.first >= start && s.first < end; });
        most_steps_crossed = std::max(most_steps_crossed,
                                      static_cast<std::size_t>(crossed));
      }
    }
  }
  EXPECT_GT(most_steps_crossed, 10u * 128u) << most_steps_crossed;
}

TEST(PackerDifferential, FinalBatchCappedByRemainingJobs) {
  // 16 free CPUs all along: 1-CPU jobs go 16 at a time, so 37 jobs end
  // with a batch of 5.
  const auto machine = machine_of(16, cluster::DowntimeCalendar({{300, 400}}));
  const std::vector<sched::JobRecord> none;
  const FreeCapacity free(none, machine);
  const ProjectSpec spec = ProjectSpec::paper(37, 1, 100);
  const OmniscientResult got = expect_same_pack(free, machine, spec, 50);
  ASSERT_EQ(got.batches.size(), 3u);
  EXPECT_EQ(got.batches[2].first, 400);  // waits out the window
  EXPECT_EQ(got.batches.back().second, 5u);
}

}  // namespace
}  // namespace istc::core
