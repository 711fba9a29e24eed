// fleet — the batched grid stream: four synthetic Ross-class machines and
// four projects of 125,000 jobs at 1/2/4/8 CPUs through
// grid::FleetRun::finish() at the default shard-thread count.  The only
// workload that runs grid: broker routing, delivery batching, the epoch
// loop and the shard pool, over many tiny batch-delivered jobs.
//
// The machines are fixed and the seed draws the projects' fair-share
// weights: another machine set changes the stream's cost by up to 2x
// (2.7-5.0 s measured over five offsets of the million-job stream).  The
// stream is half of bench/sweep_forks' million jobs so that a run can
// replay each of kFleetStreams weight draws several times (0.8-1.0 s a
// stream on a 4-vCPU VM, against 3.3-5.6 s for the million): best_walls
// keeps each stream's best wall.

#include <cstdio>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "grid/fleet.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace istc;

constexpr std::size_t kFleetJobsEach = 125'000;
constexpr int kFleetWidths[4] = {1, 2, 4, 8};

std::uint64_t fleet_stream_seed(std::uint64_t seed, int stream) {
  return seed * kFleetStreams + static_cast<std::uint64_t>(stream);
}

std::unique_ptr<grid::FleetRun> make_fleet(std::uint64_t stream_seed,
                                           std::size_t threads) {
  std::vector<grid::MachineSetup> machines;
  for (int i = 0; i < 4; ++i) {
    machines.push_back(grid::synthetic_machine_setup(10 + i));
  }
  Rng rng(0xF1EE7ull ^ stream_seed);
  std::vector<grid::GridProjectSpec> projects;
  for (int p = 0; p < 4; ++p) {
    grid::GridProjectSpec spec;
    spec.name = "S" + std::to_string(p);
    spec.cpus_per_job = kFleetWidths[p];
    spec.work_per_cpu = 5.0 * cluster::kGiga;
    spec.jobs = kFleetJobsEach;
    spec.share =
        stream_seed == 0 ? 1.0 : 1.0 + static_cast<double>(rng.below(4));
    projects.push_back(std::move(spec));
  }
  grid::FleetConfig cfg;
  cfg.threads = threads;
  return std::make_unique<grid::FleetRun>(std::move(machines),
                                          std::move(projects), cfg);
}

std::size_t fleet_jobs() { return 4 * kFleetJobsEach; }

std::size_t fleet_completed(const grid::FleetResult& r, bool* accounted) {
  std::size_t completed = 0, abandoned = 0;
  for (const auto& led : r.ledgers) {
    completed += led.completed;
    abandoned += led.abandoned();
  }
  *accounted = completed + abandoned == fleet_jobs();
  return completed;
}

void run_fleet(const Options& opt, Report& report) {
  std::vector<double> setup;
  std::vector<std::uint64_t> hashes(kFleetStreams, 0);
  std::vector<bool> replayed(kFleetStreams, false);
  std::vector<double> completed(kFleetStreams, 0.0);
  const std::vector<double> best =
      best_walls(kFleetStreams, opt.seconds, [&](int stream) {
    const std::uint64_t stream_seed = fleet_stream_seed(opt.seed, stream);
    const auto s0 = Clock::now();
    auto run = make_fleet(stream_seed, 0);
    setup.push_back(seconds_since(s0));
    const auto f0 = Clock::now();
    const grid::FleetResult r = run->finish();
    const double wall = seconds_since(f0);
    bool accounted = false;
    const auto i = static_cast<std::size_t>(stream);
    completed[i] = static_cast<double>(fleet_completed(r, &accounted));
    const std::string where = "fleet stream " + std::to_string(stream_seed);
    report.op(accounted, where + ": completed + abandoned != jobs");
    if (!replayed[i]) {
      hashes[i] = r.hash;
      replayed[i] = true;
    } else {
      report.op(r.hash == hashes[i], where + ": hash differs between two runs");
    }
    return wall;
  });
  // Peak memory before the check below, which may build another fleet.
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  double all_jobs = 0.0, all_s = 0.0;
  std::vector<double> latency;
  for (std::size_t i = 0; i < best.size(); ++i) {
    all_jobs += completed[i];
    all_s += best[i];
    latency.push_back(best[i] * 1e3);
  }
  report.metric("setup_s", median(setup), "s");
  report.metric("throughput_per_s", all_jobs / all_s, "1/s");
  report.metric("latency_p50_ms", median(latency), "ms");
  std::printf("fleet: %zu replays of %d streams of %zu jobs at %zu shard "
              "threads\n",
              setup.size(), kFleetStreams, fleet_jobs(),
              default_thread_count());

  // Thread-count invariance: pins were taken at one shard thread; without
  // pins the first stream is re-run at one thread, outside the timed loop.
  for (int stream = 0; stream < kFleetStreams; ++stream) {
    const std::uint64_t stream_seed = fleet_stream_seed(opt.seed, stream);
    const auto pin = fleet_pin(stream_seed);
    if (!pin && stream > 0) continue;
    const std::uint64_t want =
        pin ? *pin : make_fleet(stream_seed, 1)->finish().hash;
    report.op(hashes[static_cast<std::size_t>(stream)] == want,
              "fleet stream " + std::to_string(stream_seed) +
                  ": hash at default threads != 1 thread");
  }
}

}  // namespace perfbench
