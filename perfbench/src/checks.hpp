#pragma once

// Output checks.  Every workload compares what the program computed with
// values pinned from a known-good commit (pins.inc) where a pin exists for
// the seed, and otherwise with invariants that hold for any input.  Each
// check is one operation in the report: a failure counts in `failed`.

#include <cstdint>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "cluster/presets.hpp"
#include "sched/record.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Pinned grid::hash_run of a harvest replay, if known.
std::optional<std::uint64_t> harvest_pin(istc::cluster::Site site,
                                         std::uint64_t log_seed);
/// Check one harvest replay: against its pin, or against the schedule
/// invariants (records well formed, capacity never exceeded) when unpinned.
void check_harvest_run(Report& report, istc::cluster::Site site,
                       std::uint64_t log_seed,
                       const istc::sched::RunResult& run);

std::uint64_t double_bits(double x);
/// Pinned makespan bits of reps 0..kOmniscientMaxReps-1 of one cell's
/// call, if known (rep i's project start depends only on the seed and i).
std::optional<std::vector<std::uint64_t>> omniscient_pin(std::uint64_t seed,
                                                        int cell);

/// Print the pin rows (pins_<workload>.inc format) for the instances a
/// run with opt.seed uses.  For refreshing pins after an intended change
/// of the schedule: the rows are computed by the code under test.
void print_pins(const Options& opt);

/// Pinned fleet hash of one stream (taken at one shard thread), if known.
std::optional<std::uint64_t> fleet_pin(std::uint64_t stream_seed);

}  // namespace perfbench
