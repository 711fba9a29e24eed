// omniscient — Table 2 cells through core::omniscient_makespans: the
// 32-CPU rows at 7.7 and 123 Peta-cycles (2,000 and 32,000 jobs of
// 120 s@1 GHz) on all three sites, one pack per pool worker per call.
// The slowest path in the repo: its time goes to ResourceProfile bulk
// seeding and long-horizon earliest_fit/min_free, plus one transient
// parallel_for pool per call.  Set-up warms a benchmark-owned RunCache
// with the three native baselines.
//
// Every call of a run uses the same project-start seed, so a cell asked
// again repeats the same packs: best_walls keeps each cell's best wall,
// and every pack of every call is checked against its pin.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "checks.hpp"
#include "core/run_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace istc;

constexpr std::size_t kOmniscientJobs[2] = {2000, 32000};

cluster::Site omniscient_site(int cell) {
  return cluster::all_sites()[static_cast<std::size_t>(cell % 3)];
}

core::ProjectSpec omniscient_spec(int cell) {
  return core::ProjectSpec::paper(kOmniscientJobs[cell / 3], 32, 120);
}

std::uint64_t omniscient_call_seed(std::uint64_t seed) {
  return 0x7AB1E2ull + seed * 1000;
}

int omniscient_reps() {
  return static_cast<int>(std::min<std::size_t>(default_thread_count(),
                                                kOmniscientMaxReps));
}

std::unique_ptr<core::RunCache> warm_native_cache() {
  auto cache = std::make_unique<core::RunCache>();
  for (const cluster::Site site : cluster::all_sites()) {
    core::native_baseline(site, cache.get());
  }
  return cache;
}

void run_omniscient(const Options& opt, Report& report) {
  // Set-up three times (the median is the metric); the last cache serves.
  std::vector<double> setup;
  std::unique_ptr<core::RunCache> cache;
  for (int i = 0; i < 3; ++i) {
    cache.reset();
    const auto s0 = Clock::now();
    cache = warm_native_cache();
    setup.push_back(seconds_since(s0));
  }

  const int reps = omniscient_reps();
  int calls = 0;
  const std::vector<double> best =
      best_walls(kOmniscientCells, opt.seconds, [&](int cell) {
    const auto c0 = Clock::now();
    const core::MakespanSample sample = core::omniscient_makespans(
        omniscient_site(cell), omniscient_spec(cell), reps,
        omniscient_call_seed(opt.seed), cache.get());
    const double wall = seconds_since(c0);
    ++calls;

    const std::string where = "omniscient cell " + std::to_string(cell);
    bool sane = sample.hours.size() == static_cast<std::size_t>(reps);
    for (const double h : sample.hours) sane = sane && std::isfinite(h) && h > 0;
    report.op(sane, where + ": makespans missing or not positive");
    if (const auto pin = omniscient_pin(opt.seed, cell)) {
      bool same = true;
      for (std::size_t r = 0; r < pin->size() && r < sample.hours.size(); ++r) {
        same = same && double_bits(sample.hours[r]) == (*pin)[r];
      }
      report.op(same, where + ": makespans differ from the pinned values");
    }
    return wall;
  });

  double all_s = 0.0;
  for (const double w : best) all_s += w;
  std::printf("omniscient: %d calls over %d cells, %d packs per call\n", calls,
              kOmniscientCells, reps);
  report.metric("setup_s", median(setup), "s");
  report.metric("throughput_per_s", kOmniscientCells * reps / all_s, "1/s");
  report.metric("latency_p50_ms", all_s * 1e3, "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
