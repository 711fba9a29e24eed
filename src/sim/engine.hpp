#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event_queue.hpp"
#include "trace/tracer.hpp"
#include "util/time.hpp"

/// \file engine.hpp
/// The discrete-event engine.
///
/// Model: events fire in (time, insertion) order.  After *all* events at a
/// timestamp have fired, registered quiescent hooks run once.  The batch
/// scheduler performs its scheduling pass in a quiescent hook, so N jobs
/// completing at the same second trigger one pass, exactly like a real
/// resource manager waking up on a state change.
///
/// Events live in the calendar queue of calendar_queue.hpp: O(1)
/// amortized push/pop for the near-uniform event-time distributions these
/// replays produce.  Typed schedule_* calls carry a 32-bit argument
/// dispatched to the registered JobEventSink or hook; generic callbacks
/// use the small-buffer slot of event_queue.hpp.  Schedules are pinned by
/// the golden hashes in tests/trace/test_determinism.

namespace istc::sim {

/// Receiver of typed job events.  The batch scheduler implements this;
/// dispatch is one virtual call instead of a type-erased closure, and the
/// event entry carries a 32-bit id instead of captured state.
class JobEventSink {
 public:
  /// A job submission arrives; `index` is the value passed to
  /// schedule_job_submit (the scheduler's submission-table index).
  virtual void job_submit(std::uint32_t index) = 0;
  /// A running job's true runtime elapsed; `slot` is the value passed to
  /// schedule_job_finish (the scheduler's job-store slot).
  virtual void job_finish(std::uint32_t slot) = 0;
  /// A capacity outage scheduled via schedule_capacity_repair elapsed;
  /// `outage_id` is the scheduler's outage identifier.  Default no-op so
  /// sinks without a fault surface (tests, benches) need not care.
  virtual void capacity_repair(std::uint32_t outage_id) { (void)outage_id; }

 protected:
  ~JobEventSink() = default;
};

/// Engine-side event statistics, tracked unconditionally (all are cheap
/// increments / compares) and mirrored into TraceSummary when a tracer
/// with counters is attached.
struct EngineStats {
  /// Events scheduled, by EventType slot (callback, submit, finish, wake,
  /// sample).
  std::uint64_t scheduled_by_type[kNumEventTypes] = {};
  /// High-water mark of simultaneously queued events.
  std::size_t peak_queue_depth = 0;
  /// Largest number of events drained at one timestamp (including events
  /// scheduled for "now" from inside callbacks and hooks).
  std::uint64_t max_timestep_batch = 0;
  /// Queue heap allocations: bucket and window growth plus boxed
  /// callbacks (CalendarEventQueue::heap_allocations).
  std::uint64_t heap_allocations = 0;
};

class Engine {
 public:
  /// Register the receiver of typed job events (nullptr detaches).  Must
  /// be set before schedule_job_submit / schedule_job_finish fire.
  void set_job_sink(JobEventSink* sink) { sink_ = sink; }

  /// Pre-reserve queue slots for `n` additional events, so a known burst
  /// (e.g. a whole job log's submissions) never grows the callback slab
  /// mid-run.
  void reserve_events(std::size_t n) { queue_.reserve(queue_.size() + n); }

  /// Schedule a callback at absolute time t (must not be in the past).
  /// Trivially copyable callables up to CallbackSlot::kInlineBytes are
  /// stored inline; larger or non-trivial ones are boxed (counted in
  /// EngineStats::heap_allocations).
  template <class F>
  void schedule(SimTime t, F&& fn) {
    ISTC_EXPECTS(t >= now_);
    queue_.push_callback(t, std::forward<F>(fn));
    note_scheduled(EventType::kCallback);
  }

  /// Schedule a callback dt seconds from now.
  template <class F>
  void schedule_in(Seconds dt, F&& fn) {
    ISTC_EXPECTS(dt >= 0);
    schedule(now_ + dt, std::forward<F>(fn));
  }

  /// Typed paths: no captured state, a 32-bit argument dispatched to the
  /// JobEventSink (submit/finish) or to nobody (wake — its only purpose is
  /// triggering a quiescent pass at t).
  void schedule_job_submit(SimTime t, std::uint32_t index) {
    schedule_typed(t, EventType::kJobSubmit, index);
  }
  void schedule_job_finish(SimTime t, std::uint32_t slot) {
    schedule_typed(t, EventType::kJobFinish, slot);
  }
  void schedule_wake(SimTime t) {
    schedule_typed(t, EventType::kSchedulerWake, 0);
  }
  void schedule_capacity_repair(SimTime t, std::uint32_t outage_id) {
    schedule_typed(t, EventType::kCapacityRepair, outage_id);
  }
  /// Fault-timeline firing (fault::FaultInjector): arg indexes the
  /// injector's pre-generated timeline and dispatches to the fault hook.
  /// Typed rather than a captured callback so a mid-run queue holds only
  /// POD entries — the property run forks depend on.
  void schedule_fault(SimTime t, std::uint32_t timeline_index) {
    schedule_typed(t, EventType::kFaultFire, timeline_index);
  }

  /// Receiver of kFaultFire events (at most one; empty detaches).
  void set_fault_hook(std::function<void(std::uint32_t)> hook) {
    fault_hook_ = std::move(hook);
  }

  /// Grid-port delivery (grid::GridMachine): arg indexes the machine's
  /// append-only delivery log and dispatches to the grid hook.  Typed for
  /// the same reason as schedule_fault — a mid-run queue must hold only
  /// POD entries so a whole fleet shard can fork via adopt_state.
  void schedule_grid_arrival(SimTime t, std::uint32_t delivery_index) {
    schedule_typed(t, EventType::kGridArrival, delivery_index);
  }

  /// Receiver of kGridArrival events (at most one; empty detaches).
  void set_grid_hook(std::function<void(std::uint32_t)> hook) {
    grid_hook_ = std::move(hook);
  }

  /// Schedule a metrics sample at t (metrics::SimSampler).  Unlike a wake,
  /// a sample is *hook-transparent*: a timestamp reached only by the
  /// sample invokes the sample hook but skips the quiescent hooks, so
  /// periodic sampling never inserts extra scheduler passes (which would
  /// shift gate decisions) and the schedule stays bit-identical to an
  /// unsampled run.  The pending sample is a scalar deadline beside the
  /// event queue, not a queue entry — re-arming every tick costs two
  /// comparisons, never a push into the (large, submission-preloaded)
  /// queue.  At most one may be pending; the sampler re-arms from its own
  /// hook, after the slot has been claimed.  When a sample coincides with
  /// real events it fires last, observing the settled post-pass state.
  void schedule_sample(SimTime t) {
    ISTC_EXPECTS(t >= now_);
    ISTC_EXPECTS(next_sample_ == kTimeInfinity);
    next_sample_ = t;
    note_scheduled(EventType::kSample);
  }

  /// Receiver of kSample events (at most one; nullptr detaches).  The hook
  /// must only observe — scheduling anything other than a future sample
  /// from it would forfeit hook transparency.
  void set_sample_hook(std::function<void(SimTime)> hook) {
    sample_hook_ = std::move(hook);
  }

  /// Register a hook invoked once per distinct timestamp after its events
  /// drain.  Hooks run in registration order and may schedule new events;
  /// events they add for the *current* time fire before the timestep ends
  /// and re-trigger the hooks (bounded by the iteration guard).
  void on_quiescent(std::function<void(SimTime)> hook);

  SimTime now() const { return now_; }
  std::uint64_t events_processed() const { return events_processed_; }
  bool finished() const { return queue_empty(); }
  /// Absolute time of the next pending work item (queued events merged with
  /// the pending sample); kTimeInfinity when nothing is queued.  The grid
  /// layer uses this to advance a machine in bounded epoch slices via
  /// step() without ever moving the clock past a real event — run(until)
  /// bumps now_ to `until`, which would shift sim_end across slicings.
  SimTime next_event_time() const { return queue_next_time(); }
  std::size_t queued_events() const { return queue_.size(); }

  /// Event-core statistics (see EngineStats).
  const EngineStats& stats() const { return stats_; }

  /// Attach a tracer (nullptr detaches).  The engine only feeds counters
  /// (events drained, quiescent timesteps, event-core gauges); it never
  /// records events, so attaching a tracer cannot perturb event order.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

  /// Run until the queue empties or the clock would pass `until`.
  /// Events at exactly `until` are processed.
  void run(SimTime until = kTimeInfinity);

  /// Process exactly one timestep (all events at the next timestamp plus
  /// quiescent hooks).  Returns false when no events remain.
  bool step();

  /// Run-fork support: become a mid-run copy of `other` — pending events,
  /// push counter, clock, and statistics.  Requires no live callback
  /// payloads in either queue (a captured closure cannot be transplanted)
  /// and no pending sample on `other`.  Sinks and hooks are NOT copied:
  /// they are identities of the forked stack, which re-registers its own
  /// (see core/fork.hpp).
  void adopt_state(const Engine& other) {
    ISTC_EXPECTS(other.next_sample_ == kTimeInfinity);
    queue_.assign_from(other.queue_);
    now_ = other.now_;
    events_processed_ = other.events_processed_;
    stats_ = other.stats_;
  }

 private:
  void schedule_typed(SimTime t, EventType type, std::uint32_t arg) {
    ISTC_EXPECTS(t >= now_);
    queue_.push_typed(t, type, arg);
    note_scheduled(type);
  }

  void note_scheduled(EventType type) {
    ++stats_.scheduled_by_type[static_cast<int>(type)];
    const std::size_t depth = queue_.size();
    if (depth > stats_.peak_queue_depth) stats_.peak_queue_depth = depth;
  }

  /// Overall next work item: real events merged with the pending sample.
  bool queue_empty() const {
    return queue_.empty() && next_sample_ == kTimeInfinity;
  }
  SimTime queue_next_time() const {
    const SimTime t = queue_.empty() ? kTimeInfinity : queue_.next_time();
    return t < next_sample_ ? t : next_sample_;
  }

  void dispatch(Event& e);
  void drain_current_time();
  /// Mirror the event-core gauges into the attached tracer's counters.
  void sync_counters();

  CalendarEventQueue queue_;
  JobEventSink* sink_ = nullptr;
  std::function<void(std::uint32_t)> fault_hook_;
  std::function<void(std::uint32_t)> grid_hook_;
  std::function<void(SimTime)> sample_hook_;
  /// The single pending sample deadline (kTimeInfinity = none); lives
  /// beside the queue so per-tick re-arming is O(1) — see schedule_sample.
  SimTime next_sample_ = kTimeInfinity;
  std::vector<std::function<void(SimTime)>> hooks_;
  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  EngineStats stats_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace istc::sim
