#pragma once

// The workloads' inputs, shared by the timed runs and the traced run so
// both measure the same things.  Each input is a pure function of the
// workload seed.

#include <cstdint>
#include <memory>

#include "cluster/presets.hpp"
#include "core/experiment.hpp"
#include "core/project.hpp"
#include "core/run_cache.hpp"
#include "grid/fleet.hpp"

namespace perfbench {

// -- harvest ----------------------------------------------------------------

/// Log sets a harvest run cycles through.
inline constexpr int kHarvestLogSets = 8;
/// Log seeds reserved per run seed: room for up to ten sets, so changing
/// kHarvestLogSets keeps each seed's first sets (and their pins).
inline constexpr std::uint64_t kHarvestLogSeedStride = 10;
/// Log seed of set `set` under run seed `seed`: seed*10 + set, so seed 0
/// starts with the canonical logs (log seed 0).
std::uint64_t harvest_log_seed(std::uint64_t seed, int set);
/// The site's log plus an unbounded 32-CPU x 120 s@1 GHz stream.
istc::core::Scenario harvest_scenario(istc::cluster::Site site,
                                      std::uint64_t log_seed);

// -- omniscient -------------------------------------------------------------

/// Cells in Table 2 order of the benchmark: 2,000-job then 32,000-job
/// rows, each over Ross, Blue Mountain, Blue Pacific.
inline constexpr int kOmniscientCells = 6;
/// Packs per call at most (one per pool worker below that); every one of
/// them has a pin for the pinned seeds.
inline constexpr int kOmniscientMaxReps = 8;
istc::cluster::Site omniscient_site(int cell);
istc::core::ProjectSpec omniscient_spec(int cell);
/// Project-start seed of every call of a run.
std::uint64_t omniscient_call_seed(std::uint64_t seed);
/// Packs per call: one per pool worker, at most kOmniscientMaxReps.
int omniscient_reps();
/// A RunCache holding the three native baselines (the set-up).
std::unique_ptr<istc::core::RunCache> warm_native_cache();

// -- fleet ------------------------------------------------------------------

/// Streams a fleet run cycles through.
inline constexpr int kFleetStreams = 8;
/// Seed of stream `stream` under run seed `seed`: seed*8 .. seed*8+7, so
/// seed 0 starts with the canonical stream.
std::uint64_t fleet_stream_seed(std::uint64_t seed, int stream);
/// One stream: the four synthetic Ross-class machines of bench/sweep_forks
/// (synthetic_machine_setup(10..13)) and four projects of 125,000 jobs at
/// 1/2/4/8 CPUs whose fair-share weights (1-4) are drawn from
/// `stream_seed` (0: all 1, the canonical weights).
std::unique_ptr<istc::grid::FleetRun> make_fleet(std::uint64_t stream_seed,
                                                 std::size_t threads);
std::size_t fleet_jobs();
/// Completed grid jobs; *accounted is completed + abandoned == jobs.
std::size_t fleet_completed(const istc::grid::FleetResult& r, bool* accounted);

}  // namespace perfbench
