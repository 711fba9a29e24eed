#include "sim/engine.hpp"

#include <algorithm>

namespace istc::sim {

void Engine::on_quiescent(std::function<void(SimTime)> hook) {
  ISTC_EXPECTS(hook != nullptr);
  hooks_.push_back(std::move(hook));
}

void Engine::dispatch(Event& e) {
  switch (e.type) {
    case EventType::kCallback: {
      // Claim the payload first: the invoked callable may schedule more
      // events and recycle this event's slab slot.
      CallbackSlot cb = queue_.take_callback(e);
      cb.invoke();
      break;
    }
    case EventType::kJobSubmit:
      sink_->job_submit(e.arg);
      break;
    case EventType::kJobFinish:
      sink_->job_finish(e.arg);
      break;
    case EventType::kSchedulerWake:
      break;  // its entire effect is the quiescent pass that follows
    case EventType::kCapacityRepair:
      sink_->capacity_repair(e.arg);
      break;
    case EventType::kFaultFire:
      fault_hook_(e.arg);
      break;
    case EventType::kGridArrival:
      grid_hook_(e.arg);
      break;
    case EventType::kSample:
      // Never queued: the pending sample is the next_sample_ scalar and
      // fires from drain_current_time (see Engine::schedule_sample).
      break;
  }
}

void Engine::sync_counters() {
  // Gauges, not increments: the engine owns the running values in stats_
  // and mirrors the maxima into the shared counter block (so a tracer
  // attached to several engines reports the largest seen).
  trace::TraceSummary& c = tracer_->counters();
  c.engine_peak_queue_depth = std::max(
      c.engine_peak_queue_depth,
      static_cast<std::uint64_t>(stats_.peak_queue_depth));
  c.engine_max_timestep_batch =
      std::max(c.engine_max_timestep_batch, stats_.max_timestep_batch);
  c.engine_heap_allocations =
      std::max(c.engine_heap_allocations, stats_.heap_allocations);
  c.engine_events_callback = std::max(
      c.engine_events_callback, stats_.scheduled_by_type[static_cast<int>(
                                    EventType::kCallback)]);
  c.engine_events_job_submit = std::max(
      c.engine_events_job_submit, stats_.scheduled_by_type[static_cast<int>(
                                      EventType::kJobSubmit)]);
  c.engine_events_job_finish = std::max(
      c.engine_events_job_finish, stats_.scheduled_by_type[static_cast<int>(
                                      EventType::kJobFinish)]);
  c.engine_events_wake = std::max(
      c.engine_events_wake, stats_.scheduled_by_type[static_cast<int>(
                                EventType::kSchedulerWake)]);
  c.engine_events_sample = std::max(
      c.engine_events_sample, stats_.scheduled_by_type[static_cast<int>(
                                  EventType::kSample)]);
  c.engine_events_repair = std::max(
      c.engine_events_repair, stats_.scheduled_by_type[static_cast<int>(
                                  EventType::kCapacityRepair)]);
  c.engine_events_fault = std::max(
      c.engine_events_fault, stats_.scheduled_by_type[static_cast<int>(
                                 EventType::kFaultFire)]);
  c.engine_events_grid_arrival = std::max(
      c.engine_events_grid_arrival, stats_.scheduled_by_type[static_cast<int>(
                                        EventType::kGridArrival)]);
}

void Engine::drain_current_time() {
  // Alternate "drain events at now_" with "run hooks" until neither side
  // produces more work at this timestamp.  The guard bounds pathological
  // hook/event ping-pong (a correct model converges in a few rounds).
  constexpr int kMaxRounds = 64;
  int rounds = 0;
  std::uint64_t batch = 0;
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    ++tracer_->counters().engine_timesteps;
  }
  // Claim the pending sample up front; it fires after the timestep
  // settles, so it observes the post-pass state and its hook can re-arm.
  const bool sample_due = next_sample_ == now_;
  if (sample_due) next_sample_ = kTimeInfinity;
  for (;;) {
    bool fired = false;
    while (!queue_.empty() && queue_.next_time() == now_) {
      ++events_processed_;
      ++batch;
      if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
        ++tracer_->counters().engine_events_drained;
      }
      Event e = queue_.pop();
      dispatch(e);
      fired = true;
    }
    // Hook transparency: a timestamp reached only by the sample probes
    // state but changes nothing, so the quiescent hooks (the scheduler
    // pass) are skipped and the schedule is bit-identical to an unsampled
    // run.
    if (!fired && rounds == 0 && sample_due) break;
    if (!fired && rounds > 0) break;  // hooks already ran, nothing new
    for (auto& hook : hooks_) hook(now_);
    ++rounds;
    ISTC_ASSERT(rounds < kMaxRounds);
    if (queue_.empty() || queue_.next_time() != now_) break;
  }
  if (sample_due) {
    ++events_processed_;
    ++batch;
    if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
      ++tracer_->counters().engine_events_drained;
    }
    if (sample_hook_) sample_hook_(now_);
  }
  if (batch > stats_.max_timestep_batch) stats_.max_timestep_batch = batch;
  stats_.heap_allocations = queue_.heap_allocations();
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) sync_counters();
}

bool Engine::step() {
  if (queue_empty()) return false;
  now_ = queue_next_time();
  drain_current_time();
  return true;
}

void Engine::run(SimTime until) {
  while (!queue_empty() && queue_next_time() <= until) {
    now_ = queue_next_time();
    drain_current_time();
  }
  if (now_ < until && until != kTimeInfinity) now_ = until;
}

}  // namespace istc::sim
