#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/time.hpp"

/// \file pipeline.hpp
/// The scheduling pass as a pipeline of composable stages.
///
/// One pass = PriorityStage → DispatchStage → BackfillStage → GateStage,
/// each an object with its own run/time counters.  Site policies (PBS /
/// LSF / DPCS) and the ablation baselines differ only in how the stages
/// are configured — backfill discipline, preemption — not in branches
/// inside one monolithic function, which is what lets new disciplines be
/// added as stage configurations.
///
/// Stages communicate through a PassState that the scheduler threads
/// through the pipeline; the scheduler's persistent ResourceProfile and
/// queue live on the scheduler itself and stages mutate them in place.

namespace istc::sched {

class BatchScheduler;
enum class BackfillMode : std::uint8_t;

/// Fixed stage order; values index TraceSummary::stage_us / stage_runs.
enum class StageKind : std::uint8_t {
  kPriority = 0,  ///< (re)establish the queue's priority order
  kDispatch = 1,  ///< start jobs in order until the first blocked one
  kBackfill = 2,  ///< let junior jobs overtake per the backfill discipline
  kGate = 3,      ///< compact queue, arm wake, run the post-pass hook
};

inline constexpr int kNumPassStages = 4;

const char* stage_name(StageKind kind);

/// Mutable state one scheduling pass threads through the stages.  Owned by
/// the scheduler and reset per pass; vectors keep their capacity so a pass
/// allocates nothing in steady state.
struct PassState {
  SimTime now = 0;
  /// Indices into the scheduler's pending queue, in priority order
  /// (PriorityStage output; identity permutation when the cached order
  /// from the previous pass is still valid).
  std::vector<std::size_t> order;
  /// started[i] marks pending_[i] as started this pass (GateStage drops it).
  std::vector<char> started;
  /// True once a job could not start now; set by DispatchStage.
  bool saw_blocked = false;
  /// Position in `order` where DispatchStage stopped; BackfillStage
  /// resumes there.
  std::size_t resume_pos = 0;
  /// Earliest (estimate-based) start of the blocked head / of any waiter.
  SimTime head_earliest = kTimeInfinity;
  SimTime queue_earliest = kTimeInfinity;

  void reset(SimTime t, std::size_t queue_len) {
    now = t;
    order.resize(queue_len);
    started.assign(queue_len, 0);
    saw_blocked = false;
    resume_pos = 0;
    head_earliest = kTimeInfinity;
    queue_earliest = kTimeInfinity;
  }
};

/// One stage of the scheduling pass.
class PassStage {
 public:
  explicit PassStage(StageKind kind) : kind_(kind) {}
  virtual ~PassStage() = default;

  PassStage(const PassStage&) = delete;
  PassStage& operator=(const PassStage&) = delete;

  StageKind kind() const { return kind_; }
  const char* name() const { return stage_name(kind_); }

  virtual void run(BatchScheduler& sched, PassState& st) = 0;

 private:
  StageKind kind_;
};

/// Recompute fair-share priorities and sort the queue — or prove nothing
/// changed (same fair-share ledger epoch, no new submissions) and reuse
/// the order left by the previous pass.  Reuse is exact, not approximate:
/// between charges every principal's deficit is constant and queue aging
/// shifts all priorities by the same amount, so the relative order cannot
/// change (see FairShareTracker::epoch).
class PriorityStage final : public PassStage {
 public:
  PriorityStage() : PassStage(StageKind::kPriority) {}
  void run(BatchScheduler& sched, PassState& st) override;
};

/// Start jobs in priority order until the first one that cannot start now;
/// that head job receives the pass's reservation (its shadow time).  With
/// preemption enabled, a blocked native may evict interstitial jobs first.
class DispatchStage final : public PassStage {
 public:
  DispatchStage(BackfillMode mode, bool preempt)
      : PassStage(StageKind::kDispatch), mode_(mode), preempt_(preempt) {}
  void run(BatchScheduler& sched, PassState& st) override;

 private:
  BackfillMode mode_;
  bool preempt_;
};

/// Walk the jobs behind the blocked head under the configured discipline:
/// EASY lets them start wherever the head's reservation leaves room,
/// conservative adds a reservation per blocked job, none (the ablation
/// baseline) starts nothing but still computes earliest starts for the
/// interstitial gate.
class BackfillStage final : public PassStage {
 public:
  BackfillStage(BackfillMode mode, bool preempt)
      : PassStage(StageKind::kBackfill), mode_(mode), preempt_(preempt) {}
  void run(BatchScheduler& sched, PassState& st) override;

 private:
  BackfillMode mode_;
  bool preempt_;
};

/// Post-pass gate: undo the pass's temporary reservations (the persistent
/// profile must describe running jobs only between passes), drop started
/// jobs from the queue keeping it in priority order, guarantee a future
/// pass at the head's earliest start, and hand the PassContext to the
/// post-pass hook (the interstitial driver).
class GateStage final : public PassStage {
 public:
  GateStage() : PassStage(StageKind::kGate) {}
  void run(BatchScheduler& sched, PassState& st) override;
};

/// The stage pipeline a PolicySpec configures.
std::vector<std::unique_ptr<PassStage>> build_pipeline(
    BackfillMode mode, bool preempt_interstitial);

}  // namespace istc::sched
