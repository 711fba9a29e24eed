#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/time.hpp"

/// \file resource_profile.hpp
/// A step function of free CPUs over future time.
///
/// This single structure powers both backfill flavours and the omniscient
/// packer: reservations subtract capacity over an interval; queries ask how
/// much is free at an instant, the minimum over a window, or the earliest
/// start at which a (cpus x duration) rectangle fits.
///
/// Storage is a flat sorted array of breakpoints, not a tree: every hot
/// pass operation is a scan (earliest_fit walks candidate windows,
/// reserve/release sweep an interval, coalesce merges a run), and scanning
/// a few hundred contiguous 16-byte entries beats chasing red-black tree
/// nodes by a wide margin.  Point lookups are binary searches.  The
/// per-pass advance_origin bumps a head cursor instead of erasing nodes;
/// the dead prefix is reclaimed in bulk once it dominates the array.
///
/// Large profiles additionally carry a *hole index*: a lazily rebuilt
/// min/max segment tree over the live breakpoints that turns earliest_fit's
/// candidate walk and min_free's window scan into O(log n) descents
/// ("first step with >= c free after i" via the max tree, "first step with
/// < c free" via the min tree).  The index is a pure accelerator — answers
/// are identical by construction (pinned by a property test against the
/// linear scan) — and it only switches on once the live breakpoint count
/// reaches a threshold, below which the linear scan wins on locality.
/// Mutations never touch the tree; they mark it dirty and the next indexed
/// query rebuilds in one O(n) pass, which amortizes because backfill
/// passes issue many earliest_fit probes per profile mutation batch.

namespace istc::sched {

class ResourceProfile {
 public:
  /// Uniform capacity from `origin` to infinity.
  ResourceProfile(SimTime origin, int capacity);

  SimTime origin() const { return origin_; }
  int capacity() const { return capacity_; }

  /// Free CPUs at time t (t >= origin).
  int free_at(SimTime t) const;

  /// Minimum free CPUs over [start, end); end > start.
  int min_free(SimTime start, SimTime end) const;

  /// Subtract `cpus` over [start, end).  The interval must have at least
  /// `cpus` free throughout (checked) — callers find a fit first.
  void reserve(SimTime start, SimTime end, int cpus);

  /// Add `cpus` over [start, end) (capacity growth / release); the result
  /// may not exceed the construction capacity (checked).
  void release(SimTime start, SimTime end, int cpus);

  /// Lay a static step function in from `steps.front()` onward: each
  /// (time, free CPUs) step holds until the next, the last one until
  /// `horizon`, and from `horizon` on the profile is `capacity()` again
  /// (kTimeInfinity: the last step holds forever).  The part overwritten
  /// must still be uniform capacity (checked), i.e. the placeholder a
  /// previous extend() left, so a long function can be laid in chunk by
  /// chunk just ahead of the queries that need it.  Steps are strictly
  /// increasing in time with 0..capacity free; steps at or before
  /// origin() fold into the first segment, and equal neighbours coalesce.
  void extend(std::span<const std::pair<SimTime, int>> steps,
              SimTime horizon);

  /// Earliest t >= not_before such that min_free(t, t+duration) >= cpus.
  /// Always succeeds (the profile is capacity after the last breakpoint)
  /// provided cpus <= capacity.
  SimTime earliest_fit(int cpus, Seconds duration, SimTime not_before) const;

  /// First instant strictly after t at which the free-CPU value changes,
  /// or kTimeInfinity when the function is constant from t onward.  The
  /// metrics sampler reads this as "how long does the current interstice
  /// hold"; equal-valued adjacent segments are skipped, so the answer is
  /// segmentation-agnostic.
  SimTime next_change(SimTime t) const;

  /// The step in force at t: free CPUs plus the instant that value next
  /// changes (kTimeInfinity when constant onward).  Equivalent to
  /// {free_at(t), next_change(t)} in a single descent — the sampler
  /// probes this every tick, so the paired query is on the hot path.
  struct Step {
    int free;
    SimTime until;
  };
  Step step_at(SimTime t) const;

  /// Advance the origin to t >= origin(), discarding breakpoints in the
  /// past.  The step function over [t, inf) is unchanged.  This is what
  /// keeps a pass-persistent profile from accumulating history: the
  /// scheduler advances to `now` at the top of every pass.
  void advance_origin(SimTime t);

  /// Merge every run of adjacent equal-valued segments.  reserve/release
  /// already coalesce around their own interval; this full sweep is the
  /// backstop for callers composing many operations (and the guarantee the
  /// segment-count tests pin: steps() is bounded by the number of distinct
  /// future change points, never by the operation count).
  void coalesce();

  /// True when `other` is the same step function over [origin, inf):
  /// same origin, same free CPUs at every instant (segmentation-agnostic,
  /// though coalesced profiles are canonical).  ISTC_PARANOID uses this to
  /// check the incrementally maintained profile against a from-scratch
  /// rebuild.
  bool same_function(const ResourceProfile& other) const;

  /// Number of internal breakpoints (diagnostics / complexity tests).
  std::size_t steps() const { return pts_.size() - head_; }

  // -- hole index ---------------------------------------------------------

  /// Live-breakpoint count at which queries switch to the segment-tree
  /// hole index.  kIndexDisabled turns the index off entirely.
  static constexpr std::size_t kIndexDisabled = static_cast<std::size_t>(-1);

  /// Process-wide default threshold for newly constructed profiles
  /// (tests/benches lower it to force the indexed path on small profiles).
  static void set_default_index_threshold(std::size_t threshold);
  static std::size_t default_index_threshold();

  /// Per-instance override (captured from the default at construction).
  void set_index_threshold(std::size_t threshold) {
    index_threshold_ = threshold;
  }
  std::size_t index_threshold() const { return index_threshold_; }

  /// Index rebuilds performed so far (diagnostics: the amortization claim
  /// is that this stays far below the query count on big profiles).
  std::uint64_t index_rebuilds() const { return index_rebuilds_; }

 private:
  /// One breakpoint: free CPUs from `t` until the next breakpoint.
  struct Pt {
    SimTime t;
    int f;
  };

  /// Index of the segment covering t (last live index with .t <= t).
  std::size_t find(SimTime t) const;

  /// Ensure a breakpoint exists exactly at t; returns its index.
  std::size_t split_at(SimTime t);

  /// Merge adjacent equal-valued steps around the given key range.
  void coalesce(SimTime lo, SimTime hi);

  // -- hole index internals ----------------------------------------------

  static constexpr std::size_t kNoStep = static_cast<std::size_t>(-1);

  bool use_index() const {
    return index_threshold_ != kIndexDisabled && steps() >= index_threshold_;
  }
  /// Rebuild the min/max trees if a mutation dirtied them.
  void ensure_index() const;
  /// First live-relative index >= lo whose free count is >= cpus (max-tree
  /// descent), or kNoStep.
  std::size_t first_at_least(std::size_t lo, int cpus) const;
  /// First live-relative index >= lo whose free count is < cpus (min-tree
  /// descent), or kNoStep.
  std::size_t first_below(std::size_t lo, int cpus) const;
  std::size_t descend_first(std::size_t node, std::size_t nlo, std::size_t nhi,
                            std::size_t lo, int cpus, bool below) const;
  /// Min free count over live-relative indices [lo, hi] (inclusive).
  int range_min(std::size_t lo, std::size_t hi) const;

  SimTime origin_;
  int capacity_;
  /// Breakpoints sorted by time; the live region is [head_, pts_.size())
  /// and its first entry sits exactly at origin_.  Entries before head_
  /// are consumed history awaiting bulk reclamation.
  std::vector<Pt> pts_;
  std::size_t head_ = 0;

  std::size_t index_threshold_;
  /// Segment trees over the live breakpoints' free counts, leaves at
  /// [tree_size_, tree_size_ + steps()); padding leaves hold sentinels
  /// that never satisfy either descent predicate.  Mutable: queries are
  /// const but rebuild the dirtied index lazily.
  mutable std::vector<int> tree_min_;
  mutable std::vector<int> tree_max_;
  mutable std::size_t tree_size_ = 0;
  mutable bool index_dirty_ = true;
  mutable std::uint64_t index_rebuilds_ = 0;
};

}  // namespace istc::sched
