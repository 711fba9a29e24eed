// Randomized scenario smoke test: fuzz the Scenario knob space (site x
// project shape x preemption x typed/legacy events x fault spec) with a
// seeded RNG and assert the physical invariants every configuration must
// satisfy — no CPU oversubscription, internally consistent records, nothing
// running through planned outages — plus the determinism contract: the same
// knobs produce the same schedule, twice.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <vector>

#include "cluster/presets.hpp"
#include "core/experiment.hpp"
#include "metrics/utilization.hpp"
#include "util/rng.hpp"

namespace istc {
namespace {

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_run(const sched::RunResult& run) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto* list : {&run.records, &run.killed}) {
    for (const auto& r : *list) {
      h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.id));
      h = fnv1a_u64(h, static_cast<std::uint64_t>(r.start));
      h = fnv1a_u64(h, static_cast<std::uint64_t>(r.end));
      h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.cpus));
    }
  }
  h = fnv1a_u64(h, static_cast<std::uint64_t>(run.sim_end));
  return h;
}

core::Scenario random_scenario(Rng& rng) {
  core::Scenario sc;
  const auto sites = cluster::all_sites();
  sc.site = sites[rng.below(sites.size())];

  core::ProjectSpec stream = core::ProjectSpec::continual_stream(
      static_cast<int>(8u << rng.below(3)),           // 8 / 16 / 32 cpus
      120 * (1 + static_cast<Seconds>(rng.below(8))),  // 2-16 min @ 1 GHz
      cluster::site_span(sc.site));
  if (rng.bernoulli(0.3)) stream.utilization_cap = 0.9;
  stream.fault_retry.max_retries = static_cast<int>(rng.below(4));
  stream.fault_retry.backoff = 60 * static_cast<Seconds>(rng.below(10));
  stream.fault_retry.checkpoint_interval =
      rng.bernoulli(0.5) ? 10 * kSecondsPerMinute : 0;
  sc.project = stream;

  sc.preempt_interstitial = rng.bernoulli(0.5);
  // This draw once picked the event queue; it is still consumed so every
  // later draw, and thus every fuzz case, stays what it was.
  (void)rng.bernoulli(0.75);
  if (rng.bernoulli(0.7)) {
    sc.faults.seed = rng.next();
    sc.faults.crash_mtbf = kSecondsPerWeek *
                           (1 + static_cast<Seconds>(rng.below(4)));
    if (rng.bernoulli(0.5)) {
      sc.faults.node_mtbf = sc.faults.crash_mtbf / 2;
      sc.faults.node_cpus = 64 << rng.below(3);
    }
  }
  return sc;
}

void check_invariants(const core::Scenario& sc, const sched::RunResult& run) {
  // Records consistent: causality per record, ids unique across completed
  // and killed jobs alike (retries and resubmissions always run under a
  // fresh id — a reused one would let a stale finish event fire).
  std::map<workload::JobId, int> seen;
  for (const auto& r : run.records) {
    ASSERT_GE(r.start, r.job.submit);
    ASSERT_EQ(r.end - r.start, r.job.runtime);
    ASSERT_EQ(++seen[r.job.id], 1) << "duplicate id " << r.job.id;
  }
  for (const auto& r : run.killed) {
    ASSERT_GE(r.start, r.job.submit);
    ASSERT_GE(r.end, r.start);
    // A fault event ordered before a same-instant finish event can kill a
    // job exactly at its completion time, so <= rather than <.
    ASSERT_LE(r.end - r.start, r.job.runtime);
    ASSERT_EQ(++seen[r.job.id], 1) << "duplicate id " << r.job.id;
  }

  // Nothing — completed or killed — runs through a planned outage window
  // (unplanned fault outages instead kill what they displace).
  const auto cal = cluster::site_downtime(sc.site);
  for (const auto* list : {&run.records, &run.killed}) {
    for (const auto& r : *list) {
      ASSERT_EQ(cal.down_seconds(r.start, r.end), 0) << "job " << r.job.id;
    }
  }

  // No CPU oversubscription at any instant, counting the occupancy of
  // killed jobs up to their kill time.
  std::vector<sched::JobRecord> all = run.records;
  all.insert(all.end(), run.killed.begin(), run.killed.end());
  const auto steps = metrics::busy_step_function(all, metrics::JobFilter::kAll);
  for (const auto& [t, busy] : steps) {
    ASSERT_LE(busy, run.machine.cpus) << "t=" << t;
  }
}

TEST(FuzzScenarios, RandomKnobsHoldInvariantsAndDeterminism) {
  const bool quick = std::getenv("ISTC_QUICK") != nullptr;
  const int kIterations = quick ? 2 : 4;
  const Rng root(0xF022);
  for (int i = 0; i < kIterations; ++i) {
    Rng rng = root.fork(static_cast<std::uint64_t>(i));
    const core::Scenario sc = random_scenario(rng);
    SCOPED_TRACE(::testing::Message()
                 << "iteration " << i << " site "
                 << cluster::site_name(sc.site) << " cpus/job "
                 << sc.project->cpus_per_job << " preempt "
                 << sc.preempt_interstitial << " faults " << sc.faults.enabled());
    const auto run = core::run_scenario(sc);
    check_invariants(sc, run);

    // Same knobs, fresh run: bit-identical schedule.
    const auto rerun = core::run_scenario(sc);
    ASSERT_EQ(hash_run(run), hash_run(rerun));
  }
  core::clear_experiment_caches();
}

}  // namespace
}  // namespace istc
