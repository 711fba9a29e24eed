#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/time.hpp"

/// \file sampler.hpp
/// Sim-time sampler: a self-scheduling probe of live scheduler state.
///
/// The sampler rides the engine's sample deadline (Engine::schedule_sample),
/// which is *hook-transparent*: a timestamp reached
/// only by the sample never triggers a scheduler pass, so sampling on
/// or off yields bit-identical schedules (pinned by tests) and the
/// per-tick cost is one probe plus one row append.  Every sampled value is
/// sim-time derived, so equal-seed runs produce byte-identical series.

namespace istc::sim {
class Engine;
}
namespace istc::sched {
class BatchScheduler;
}

namespace istc::metrics {

struct SamplerConfig {
  /// Sampling period in sim seconds; 0 disables the sampler entirely.
  Seconds interval = 0;
  /// First tick fires at start + interval.
  SimTime start = 0;
  /// Last tick at `stop` exactly (a final partial tick is scheduled when
  /// the grid does not land on it).  kTimeInfinity = keep sampling as long
  /// as the run produces events; RunMetrics::attach fills in the site span.
  SimTime stop = kTimeInfinity;
  /// Row cap; ticks past it are counted as dropped, not stored.
  std::size_t max_samples = std::size_t{1} << 17;
};

class SimSampler {
 public:
  /// One sampled row: kColumns values, in order, all int64.  Seconds
  /// columns holding "none" are -1 (head_backfill_wall_s, interstice_hold_s
  /// when the profile is flat forever).
  static constexpr int kNumSeries = 15;
  using Row = std::array<std::int64_t, kNumSeries>;

  /// Column names, fixed order (also the series CSV header).  The two
  /// *_cpu_sec columns are per-interval busy-CPU-second deltas, whose
  /// hourly sums reproduce metrics::utilization_series numerators for
  /// kill-free runs.
  static const std::array<const char*, kNumSeries>& columns();

  /// Installs itself as the engine's sample hook and schedules the first
  /// tick.  `cfg.interval` must be > 0; both references must outlive the
  /// sampler.  The scheduler is only probed, never mutated.
  SimSampler(sim::Engine& engine, const sched::BatchScheduler& sched,
             SamplerConfig cfg);

  const SamplerConfig& config() const { return cfg_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  void tick(SimTime now);

  sim::Engine& engine_;
  const sched::BatchScheduler& sched_;
  SamplerConfig cfg_;
  std::vector<Row> rows_;
  std::uint64_t dropped_ = 0;
  /// Integral values at the previous tick, for the per-interval deltas.
  std::uint64_t last_native_cpu_sec_ = 0;
  std::uint64_t last_interstitial_cpu_sec_ = 0;
};

}  // namespace istc::metrics
