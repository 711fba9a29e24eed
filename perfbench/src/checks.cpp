#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/fork.hpp"
#include "grid/fleet.hpp"

namespace perfbench {

namespace {

struct HarvestPin {
  std::uint64_t log_seed;
  std::uint64_t hash[3];  ///< Ross, Blue Mountain, Blue Pacific
};
struct SeedPin {
  std::uint64_t seed;
  std::uint64_t hash;
};
struct CellPin {
  std::uint64_t seed;
  int cell;
  std::uint64_t bits[kOmniscientMaxReps];  ///< makespan hours, as bits
};

// Generated with `perfbench --workload W --seed N --pins 1` at a known-good
// commit; see perfbench/README.md.
const std::vector<HarvestPin> kHarvestPins = {
#include "pins_harvest.inc"
};
const std::vector<CellPin> kOmniscientPins = {
#include "pins_omniscient.inc"
};
const std::vector<SeedPin> kFleetPins = {
#include "pins_fleet.inc"
};

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Schedule invariants any correct replay satisfies: every record starts
/// at or after its submit and ends after it starts, ids are unique, and
/// the CPUs in use never exceed the machine.
std::string invariant_violation(const istc::sched::RunResult& run) {
  if (run.records.empty()) return "no records";
  std::vector<std::pair<istc::SimTime, int>> deltas;
  std::vector<istc::workload::JobId> ids;
  deltas.reserve(run.records.size() * 2);
  ids.reserve(run.records.size());
  for (const auto& r : run.records) {
    if (r.start < r.job.submit || r.end < r.start) return "bad record times";
    deltas.emplace_back(r.start, r.job.cpus);
    deltas.emplace_back(r.end, -r.job.cpus);
    ids.push_back(r.job.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate job id";
  }
  // Ends sort before starts at the same instant (-cpus < +cpus).
  std::sort(deltas.begin(), deltas.end());
  long in_use = 0;
  for (const auto& [t, d] : deltas) {
    in_use += d;
    if (in_use > run.machine.cpus) return "capacity exceeded";
  }
  return "";
}

}  // namespace

std::optional<std::uint64_t> harvest_pin(istc::cluster::Site site,
                                         std::uint64_t log_seed) {
  for (const HarvestPin& p : kHarvestPins) {
    if (p.log_seed == log_seed) return p.hash[static_cast<int>(site)];
  }
  return std::nullopt;
}

void check_harvest_run(Report& report, istc::cluster::Site site,
                       std::uint64_t log_seed,
                       const istc::sched::RunResult& run) {
  const std::uint64_t h = istc::grid::hash_run(run);
  const std::string where = istc::cluster::machine_spec(site).name +
                            " log " + std::to_string(log_seed);
  if (const auto pin = harvest_pin(site, log_seed)) {
    report.op(h == *pin, "harvest hash " + where + ": got " + hex(h) +
                             ", pinned " + hex(*pin));
    return;
  }
  const std::string why = invariant_violation(run);
  report.op(why.empty(), "harvest invariants " + where + ": " + why);
}

std::uint64_t double_bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

std::optional<std::vector<std::uint64_t>> omniscient_pin(std::uint64_t seed,
                                                        int cell) {
  for (const CellPin& p : kOmniscientPins) {
    if (p.seed == seed && p.cell == cell) {
      return std::vector<std::uint64_t>(std::begin(p.bits), std::end(p.bits));
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> fleet_pin(std::uint64_t stream_seed) {
  for (const SeedPin& p : kFleetPins) {
    if (p.seed == stream_seed) return p.hash;
  }
  return std::nullopt;
}

void print_pins(const Options& opt) {
  if (opt.workload == "harvest") {
    for (int set = 0; set < kHarvestLogSets; ++set) {
      const std::uint64_t log_seed = harvest_log_seed(opt.seed, set);
      std::printf("{%llu, {", static_cast<unsigned long long>(log_seed));
      for (const istc::cluster::Site site : istc::cluster::all_sites()) {
        istc::core::SimRun run(harvest_scenario(site, log_seed));
        std::printf("%s0x%sull", site == istc::cluster::Site::kRoss ? "" : ", ",
                    hex(istc::grid::hash_run(run.finish())).c_str());
      }
      std::printf("}},\n");
    }
  } else if (opt.workload == "omniscient") {
    const auto cache = warm_native_cache();
    for (int cell = 0; cell < kOmniscientCells; ++cell) {
      const istc::core::MakespanSample s = istc::core::omniscient_makespans(
          omniscient_site(cell), omniscient_spec(cell), kOmniscientMaxReps,
          omniscient_call_seed(opt.seed), cache.get());
      std::printf("{%llu, %d, {", static_cast<unsigned long long>(opt.seed), cell);
      for (std::size_t r = 0; r < s.hours.size(); ++r) {
        std::printf("%s0x%sull", r ? ", " : "", hex(double_bits(s.hours[r])).c_str());
      }
      std::printf("}},\n");
    }
  } else if (opt.workload == "fleet") {
    for (int stream = 0; stream < kFleetStreams; ++stream) {
      const std::uint64_t stream_seed = fleet_stream_seed(opt.seed, stream);
      std::printf("{%llu, 0x%sull},\n",
                  static_cast<unsigned long long>(stream_seed),
                  hex(make_fleet(stream_seed, 1)->finish().hash).c_str());
    }
  }
  std::fflush(stdout);
}

}  // namespace perfbench
