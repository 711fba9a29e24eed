// harvest — the paper's continual-harvest replay (Tables 6-8, first
// column): each site's native log plus an unbounded 32-CPU x 120 s@1 GHz
// interstitial stream, one core::SimRun per site, finish()ed serially on
// one thread with no tracer.  Time goes to the sim event core and the
// sched pass stages; no pool, packer or service is on this path.
//
// One instance is a log set: the three sites replayed with one log seed.
// A run cycles through kHarvestLogSets log seeds derived from --seed,
// because one log realization's cost per job differs from another's by
// tens of percent, and replays each set as often as the window allows,
// keeping its best wall (best_walls).

#include <cstdio>

#include "bench.hpp"
#include "checks.hpp"
#include "cluster/presets.hpp"
#include "core/fork.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace istc;

core::Scenario harvest_scenario(cluster::Site site, std::uint64_t log_seed) {
  core::Scenario sc;
  sc.site = site;
  sc.project = core::ProjectSpec::continual_stream(32, 120,
                                                   cluster::site_span(site));
  sc.log_seed = log_seed;
  return sc;
}

std::uint64_t harvest_log_seed(std::uint64_t seed, int set) {
  return seed * kHarvestLogSeedStride + static_cast<std::uint64_t>(set);
}

void run_harvest(const Options& opt, Report& report) {
  std::vector<double> setup;
  std::vector<double> jobs(kHarvestLogSets, 0.0);
  const std::vector<double> best =
      best_walls(kHarvestLogSets, opt.seconds, [&](int set) {
    const std::uint64_t log_seed = harvest_log_seed(opt.seed, set);
    double setup_s = 0.0, finish_s = 0.0, records = 0.0;
    for (const cluster::Site site : cluster::all_sites()) {
      sched::RunResult result;
      {
        const auto c0 = Clock::now();
        core::SimRun run(harvest_scenario(site, log_seed));
        setup_s += seconds_since(c0);
        const auto f0 = Clock::now();
        result = run.finish();
        finish_s += seconds_since(f0);
      }
      // Checked after the run is gone, so the check's memory stays below
      // the replay's peak.
      records += static_cast<double>(result.records.size());
      check_harvest_run(report, site, log_seed, result);
    }
    setup.push_back(setup_s);
    jobs[static_cast<std::size_t>(set)] = records;
    return finish_s;
  });

  double all_jobs = 0.0, all_s = 0.0;
  std::vector<double> latency;
  for (int set = 0; set < kHarvestLogSets; ++set) {
    all_jobs += jobs[static_cast<std::size_t>(set)];
    all_s += best[static_cast<std::size_t>(set)];
    latency.push_back(best[static_cast<std::size_t>(set)] * 1e3);
  }
  std::printf("harvest: %zu replays of %d log sets\n", setup.size(),
              kHarvestLogSets);
  report.metric("setup_s", median(setup), "s");
  report.metric("throughput_per_s", all_jobs / all_s, "1/s");
  report.metric("latency_p50_ms", median(latency), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
