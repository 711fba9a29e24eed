#pragma once

#include <cstdint>

/// \file summary.hpp
/// Aggregate counters and timers collected alongside (or instead of) the
/// event stream.  Deliberately dependency-free: sched::RunResult embeds a
/// TraceSummary so every experiment carries its scheduling-cost profile.
///
/// Wall-clock timers (`*_us`) are host measurements and therefore *not*
/// deterministic across runs; they never feed the event stream, only this
/// summary, so JSONL exports stay byte-identical while the summary still
/// answers "what did the scheduler pass cost".

namespace istc::trace {

struct TraceSummary {
  // -- event volume -------------------------------------------------------
  std::uint64_t events_recorded = 0;   ///< events kept in the buffer
  std::uint64_t events_dropped = 0;    ///< events past the buffer cap

  // -- engine -------------------------------------------------------------
  std::uint64_t engine_events_drained = 0;  ///< events fired
  std::uint64_t engine_timesteps = 0;       ///< distinct quiescent passes

  // -- engine event core ---------------------------------------------------
  // Gauges mirrored from sim::EngineStats once per timestep (max-merged,
  // so a tracer shared across engines reports the largest value seen).
  // The by-kind counts tally *scheduled* events per sim::EventType.
  std::uint64_t engine_peak_queue_depth = 0;   ///< event-heap high-water mark
  std::uint64_t engine_max_timestep_batch = 0; ///< largest same-time batch
  std::uint64_t engine_events_callback = 0;    ///< generic-callback events
  std::uint64_t engine_events_job_submit = 0;  ///< typed job-submit events
  std::uint64_t engine_events_job_finish = 0;  ///< typed job-finish events
  std::uint64_t engine_events_wake = 0;        ///< scheduler-wake events
  std::uint64_t engine_events_sample = 0;      ///< metrics-sample events
  std::uint64_t engine_events_repair = 0;      ///< capacity-repair events
  std::uint64_t engine_events_fault = 0;       ///< fault-timeline firings
  std::uint64_t engine_events_grid_arrival = 0;  ///< grid-port deliveries
  /// Event-queue heap allocations (bucket growth + boxed callbacks); flat
  /// once the queue's buckets have warmed up.
  std::uint64_t engine_heap_allocations = 0;

  // -- scheduler ----------------------------------------------------------
  std::uint64_t sched_passes = 0;         ///< scheduling passes timed
  std::uint64_t sched_pass_us_total = 0;  ///< wall µs across all passes
  std::uint64_t sched_pass_us_max = 0;    ///< slowest single pass, wall µs
  std::uint64_t backfill_scans = 0;       ///< earliest_start evaluations
  std::uint64_t reservations_made = 0;
  std::uint64_t reservations_honored = 0;
  std::uint64_t reservations_violated = 0;

  // -- scheduler pipeline stages (one slot per sched::StageKind) ----------
  // Wall µs spent inside each pass stage, and how often the stage ran.
  // Pass setup (wake pruning, profile origin-advance, the paranoid
  // cross-check) is timed into its own stage_setup_us slot, so
  // stage_setup_us + sum(stage_us) == sched_pass_us_total holds exactly
  // (pinned by tests/trace/test_determinism.cpp).
  static constexpr int kNumStages = 4;
  std::uint64_t stage_us[kNumStages] = {0, 0, 0, 0};
  std::uint64_t stage_runs[kNumStages] = {0, 0, 0, 0};
  std::uint64_t stage_setup_us = 0;  ///< pre-stage pass setup, wall µs

  // -- incremental scheduling state --------------------------------------
  /// Passes that re-sorted the queue because the fair-share ledger or the
  /// pending set changed, vs. passes that reused the cached priority order.
  std::uint64_t priority_recomputes = 0;
  std::uint64_t priority_reuses = 0;
  /// From-scratch ResourceProfile rebuilds (ISTC_PARANOID cross-checks).
  std::uint64_t profile_rebuilds = 0;

  // -- interstitial stream (Fig. 1 driver) --------------------------------
  std::uint64_t gate_decisions = 0;
  std::uint64_t gate_open = 0;
  std::uint64_t gate_closed = 0;
  std::uint64_t interstitial_submitted = 0;
  /// Jobs that had space but were withheld because the gate was closed.
  std::uint64_t interstitial_rejected_by_gate = 0;
  std::uint64_t interstitial_killed = 0;

  // -- unplanned failures (fault::FaultInjector) --------------------------
  std::uint64_t faults_injected = 0;       ///< crash + node-failure events
  std::uint64_t fault_crashes = 0;         ///< whole-machine crashes
  std::uint64_t fault_node_failures = 0;   ///< partial-capacity failures
  std::uint64_t fault_killed_native = 0;   ///< native jobs killed by faults
  std::uint64_t fault_killed_interstitial = 0;
  /// CPU-seconds of executed work thrown away by fault kills (work since
  /// the last checkpoint for checkpointing streams; everything otherwise).
  std::uint64_t fault_cpu_sec_lost = 0;
  /// CPU-seconds of executed work preserved by checkpoints across kills.
  std::uint64_t fault_cpu_sec_recovered = 0;
  std::uint64_t fault_native_resubmits = 0;  ///< killed natives re-queued
  std::uint64_t fault_retries = 0;           ///< interstitial retry submissions
  std::uint64_t fault_retries_exhausted = 0; ///< jobs abandoned after retries

  /// Mean scheduler-pass cost in µs (0 when no pass was timed).
  double mean_pass_us() const {
    return sched_passes == 0 ? 0.0
                             : static_cast<double>(sched_pass_us_total) /
                                   static_cast<double>(sched_passes);
  }
};

}  // namespace istc::trace
