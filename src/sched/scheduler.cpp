#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "obs/profiler.hpp"
#include "util/assert.hpp"

namespace istc::sched {

BatchScheduler::BatchScheduler(sim::Engine& engine, cluster::Machine machine,
                               PolicySpec policy)
    : engine_(engine),
      machine_(std::move(machine)),
      policy_(std::move(policy)),
      fairshare_(policy_.fairshare),
      pipeline_(
          build_pipeline(policy_.backfill, policy_.preempt_interstitial)),
      profile_(engine_.now(), machine_.total_cpus()) {
  busy_integral_at_ = engine_.now();
  engine_.set_job_sink(this);
  engine_.on_quiescent([this](SimTime now) { pass(now); });
}

BatchScheduler::BatchScheduler(sim::Engine& engine, BatchScheduler& other)
    : engine_(engine),
      machine_(other.machine_),
      policy_(other.policy_),
      fairshare_(other.fairshare_),
      store_(other.store_),
      pending_(other.pending_),
      killed_records_(other.killed_records_),
      stats_(other.stats_),
      busy_native_cpus_(other.busy_native_cpus_),
      busy_interstitial_cpus_(other.busy_interstitial_cpus_),
      running_native_(other.running_native_),
      running_interstitial_(other.running_interstitial_),
      native_cpu_sec_(other.native_cpu_sec_),
      interstitial_cpu_sec_(other.interstitial_cpu_sec_),
      busy_integral_at_(other.busy_integral_at_),
      last_pass_(other.last_pass_),
      reserved_start_(other.reserved_start_),
      pipeline_(
          build_pipeline(policy_.backfill, policy_.preempt_interstitial)),
      profile_(other.profile_),
      prio_(other.prio_),
      prio_epoch_(other.prio_epoch_),
      pending_dirty_(other.pending_dirty_),
      order_cached_(other.order_cached_),
      queued_wakes_(other.queued_wakes_),
      outages_(other.outages_),
      next_outage_id_(other.next_outage_id_),
      failed_cpus_(other.failed_cpus_) {
  ISTC_EXPECTS(!other.in_pass_);
  // The big append-only logs travel copy-on-write: freeze the source's
  // prefix, then share it.
  other.submission_table_.freeze();
  other.records_.freeze();
  submission_table_ = other.submission_table_;
  records_ = other.records_;
  engine_.set_job_sink(this);
  engine_.on_quiescent([this](SimTime now) { pass(now); });
}

void BatchScheduler::load(const workload::JobLog& log) {
  // One reservation covers every arrival event; completion events reuse
  // the slots arrivals vacate, so steady state stays allocation-free.
  engine_.reserve_events(log.size());
  submission_table_.reserve_extra(log.size());
  for (const auto& job : log.jobs()) submit(job);
}

void BatchScheduler::submit(const workload::Job& job) {
  job.check();
  ISTC_EXPECTS(job.cpus <= machine_.total_cpus());
  ISTC_EXPECTS(job.submit >= engine_.now());
  const auto index = static_cast<std::uint32_t>(submission_table_.size());
  submission_table_.push_back(job);
  engine_.schedule_job_submit(job.submit, index);
}

void BatchScheduler::job_submit(std::uint32_t index) {
  const workload::Job& job = submission_table_[index];
  trace_job(trace::EventKind::kJobSubmit, job, job.estimate);
  pending_.push_back(store_.acquire(job));
  pending_dirty_ = true;  // cached priority order no longer covers it
}

void BatchScheduler::job_finish(std::uint32_t slot) {
  complete_job(slot, engine_.now());
}

void BatchScheduler::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  engine_.set_tracer(tracer);
  if (!ISTC_TRACE_EVENTS_ON(tracer_)) return;
  // The outage calendar is static; record it once so every exporter can
  // draw the windows without consulting the cluster model.
  for (const auto& w : machine_.downtime().windows()) {
    trace::TraceEvent begin;
    begin.time = w.start;
    begin.kind = trace::EventKind::kDowntimeBegin;
    begin.aux_time = w.end;
    tracer_->record(begin);
    trace::TraceEvent end;
    end.time = w.end;
    end.kind = trace::EventKind::kDowntimeEnd;
    end.aux_time = w.start;
    tracer_->record(end);
  }
}

void BatchScheduler::trace_job(trace::EventKind kind, const workload::Job& job,
                               std::int64_t value, SimTime aux_time) {
  if (!ISTC_TRACE_EVENTS_ON(tracer_)) return;
  trace::TraceEvent e;
  e.time = engine_.now();
  e.kind = kind;
  e.interstitial = job.interstitial();
  e.job = static_cast<std::int64_t>(job.id);
  e.cpus = job.cpus;
  e.aux_time = aux_time;
  e.value = value;
  tracer_->record(e);
}

void BatchScheduler::set_post_pass_hook(
    std::function<void(const PassContext&)> hook) {
  post_pass_ = std::move(hook);
}

void BatchScheduler::set_kill_hook(
    std::function<void(const JobRecord&, KillReason)> hook) {
  on_kill_ = std::move(hook);
}

void BatchScheduler::wake_at(SimTime t) {
  const SimTime now = engine_.now();
  if (t < now) return;
  if (t == now && in_pass_) return;  // this pass is already running
  // Any wake already queued in (now, t] covers this one: the pass it
  // triggers re-evaluates the queue and re-arms a later wake if still
  // needed.  (The set, pruned as wakes fire, is what the old single
  // next_wake_ register got wrong: after its wake fired the stale value
  // kept "covering" nothing while duplicate events piled up.)
  const auto it = queued_wakes_.upper_bound(now);
  if (it != queued_wakes_.end() && *it <= t) return;
  queued_wakes_.insert(t);
  ++stats_.wakeups;
  engine_.schedule_wake(t);
}

SimTime BatchScheduler::earliest_start(const ResourceProfile& profile,
                                       const workload::Job& job,
                                       SimTime from) const {
  const auto& downtime = machine_.downtime();
  SimTime t = from;
  // Each constraint pushes t forward monotonically; converges because the
  // downtime calendar is finite and a time-of-day window opens every day.
  for (int iter = 0; iter < 1000; ++iter) {
    const SimTime fit = profile.earliest_fit(job.cpus, job.estimate, t);
    if (fit != t) {
      t = fit;
      continue;
    }
    if (policy_.time_of_day && !policy_.time_of_day->allowed(job, t)) {
      t = policy_.time_of_day->earliest_allowed(job, t);
      continue;
    }
    if (!downtime.can_run(t, job.estimate)) {
      if (downtime.is_down(t)) {
        t = downtime.up_again_at(t);
      } else {
        // Up now, but the job's estimate crosses the next window: resume
        // after that window ends.
        t = downtime.up_again_at(downtime.next_down_start(t));
      }
      continue;
    }
    return t;
  }
  ISTC_ASSERT(false);  // non-convergence means an unschedulable job
  return kTimeInfinity;
}

void BatchScheduler::advance_busy_integrals(SimTime now) {
  ISTC_ASSERT(now >= busy_integral_at_);
  const SimTime dt = now - busy_integral_at_;
  if (dt > 0) {
    native_cpu_sec_ +=
        static_cast<std::uint64_t>(busy_native_cpus_) * static_cast<std::uint64_t>(dt);
    interstitial_cpu_sec_ += static_cast<std::uint64_t>(busy_interstitial_cpus_) *
                             static_cast<std::uint64_t>(dt);
    busy_integral_at_ = now;
  }
}

void BatchScheduler::start_job(std::uint32_t slot, SimTime now) {
  const workload::Job& job = store_.job(slot);
  advance_busy_integrals(now);
  if (job.interstitial()) {
    ++stats_.interstitial_starts;
    busy_interstitial_cpus_ += job.cpus;
    ++running_interstitial_;
  } else {
    ++stats_.native_starts;
    busy_native_cpus_ += job.cpus;
    ++running_native_;
  }
  // Observational start hook: fires before the allocation so the reported
  // free-CPU count is the interstice width this dispatch landed in.
  if (on_start_) on_start_(job, machine_.free_cpus());
  trace_job(trace::EventKind::kJobStart, job, job.runtime, now + job.estimate);
  if (const auto it = reserved_start_.find(job.id);
      it != reserved_start_.end()) {
    const SimTime reserved = it->second;
    reserved_start_.erase(it);
    const bool honored = now <= reserved;
    if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
      ++(honored ? tracer_->counters().reservations_honored
                 : tracer_->counters().reservations_violated);
    }
    trace_job(honored ? trace::EventKind::kReservationHonored
                      : trace::EventKind::kReservationViolated,
              job, honored ? 0 : now - reserved, reserved);
  }
  machine_.allocate(job.cpus);
  // Persistent-profile delta: the job occupies cpus until its estimated
  // end.
  profile_.reserve(now, now + job.estimate, job.cpus);
  store_.mark_running(slot, now, now + job.estimate);
  engine_.schedule_job_finish(now + job.runtime, slot);
}

void BatchScheduler::complete_job(std::uint32_t slot, SimTime now) {
  if (store_.state(slot) == SlotState::kZombie) {
    // Stale completion event of a killed job — the last reference to the
    // zombie slot; free it.
    store_.release(slot);
    return;
  }
  ISTC_ASSERT(store_.state(slot) == SlotState::kRunning);
  const workload::Job& job = store_.job(slot);
  const SimTime start = store_.start(slot);
  const SimTime est_end = store_.est_end(slot);
  advance_busy_integrals(now);
  if (job.interstitial()) {
    busy_interstitial_cpus_ -= job.cpus;
    --running_interstitial_;
  } else {
    busy_native_cpus_ -= job.cpus;
    --running_native_;
  }
  trace_job(trace::EventKind::kJobFinish, job, 0, start);
  machine_.release(job.cpus);
  // Persistent-profile delta: return the estimated remainder.  When the
  // estimate was exact (est_end == now) nothing of it lies in the future.
  if (est_end > now) profile_.release(now, est_end, job.cpus);
  // Interstitial jobs run outside the fair-share ledger: they are a
  // facility-level scavenger stream, not a competing allocation.
  if (!job.interstitial()) {
    fairshare_.charge(job.user, job.group, job.cpu_seconds(), now);
  }
  records_.push_back(JobRecord{job, start, now});
  ISTC_ASSERT(now - start == job.runtime);
  store_.release(slot);
}

ResourceProfile BatchScheduler::rebuild_profile(SimTime now) const {
  // Future free-CPU profile from running jobs' *estimated* completions —
  // the only schedule knowledge a real resource manager has.
  ResourceProfile profile(now, machine_.total_cpus());
  for (std::uint32_t s = 0; s < store_.slots(); ++s) {
    if (store_.state(s) != SlotState::kRunning) continue;
    ISTC_ASSERT(store_.est_end(s) > now);
    profile.reserve(now, store_.est_end(s), store_.cpus(s));
  }
  // Failed capacity is allocated on the machine but backed by no running
  // job; re-reserve it or the rebuilt profile would offer downed CPUs.
  // (Repair events fire before the pass at their timestamp, so every
  // surviving outage strictly outlives now.)
  for (const auto& outage : outages_) {
    ISTC_ASSERT(outage.until > now);
    profile.reserve(now, outage.until, outage.cpus);
  }
  return profile;
}

void BatchScheduler::prepare_profile(SimTime now) {
  profile_.advance_origin(now);
#ifdef ISTC_PARANOID
  // Cross-check the incrementally maintained profile against a
  // from-scratch reconstruction: they must be the same step function.
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    ++tracer_->counters().profile_rebuilds;
  }
  ISTC_ASSERT(profile_.same_function(rebuild_profile(now)));
#endif
}

void BatchScheduler::reserve_temp(SimTime start, SimTime end, int cpus) {
  profile_.reserve(start, end, cpus);
  temp_reservations_.push_back(TempReservation{start, end, cpus});
}

void BatchScheduler::make_reservation(const workload::Job& job, SimTime t) {
  reserve_temp(t, t + job.estimate, job.cpus);
  ++stats_.reservations;
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    ++tracer_->counters().reservations_made;
  }
  if (ISTC_TRACE_EVENTS_ON(tracer_)) {
    // Only the newest reservation per job is scored honored/violated;
    // reservations drift every pass as estimates expire.
    reserved_start_[job.id] = t;
    trace_job(trace::EventKind::kReservationMade, job, 0, t);
  }
}

bool BatchScheduler::try_dispatch(std::uint32_t slot, SimTime now,
                                  bool may_start, bool preempt,
                                  SimTime& earliest_out) {
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    ++tracer_->counters().backfill_scans;
  }
  const workload::Job& job = store_.job(slot);
  SimTime t = earliest_start(profile_, job, now);
  // Preemption extension: a blocked native may evict running interstitial
  // jobs instead of waiting on them.
  if (preempt && t != now && may_start && !job.interstitial() &&
      could_start_with_kills(job, now)) {
    if (preempt_for(job, now)) {
      t = earliest_start(profile_, job, now);
    }
  }
  earliest_out = t;
  if (t == now && may_start) {
    start_job(slot, now);  // applies the profile delta itself
    return true;
  }
  return false;
}

SchedulerProbe BatchScheduler::probe() const {
  SchedulerProbe p;
  const SimTime now = engine_.now();
  p.now = now;
  p.busy_native_cpus = busy_native_cpus_;
  p.busy_interstitial_cpus = busy_interstitial_cpus_;
  p.free_cpus = machine_.free_cpus();
  p.offline_cpus = failed_cpus_;
  p.queue_native = pending_.size();
  p.running_native = running_native_;
  p.running_interstitial = running_interstitial_;
  if (!last_pass_.queue_empty &&
      last_pass_.head_earliest_start != kTimeInfinity) {
    // The head's earliest start was computed at the last pass; clamp in
    // case the probe fires after that estimate has already arrived.
    p.head_backfill_wall = std::max<SimTime>(0, last_pass_.head_earliest_start - now);
  }
  if (now >= profile_.origin()) {
    const auto step = profile_.step_at(now);
    p.interstice_cpus = step.free;
    if (step.until != kTimeInfinity) p.interstice_hold = step.until - now;
    p.profile_steps = profile_.steps();
  }
  // Project the lazily advanced integrals to now without mutating state.
  const std::uint64_t dt = static_cast<std::uint64_t>(now - busy_integral_at_);
  p.native_cpu_sec =
      native_cpu_sec_ + static_cast<std::uint64_t>(busy_native_cpus_) * dt;
  p.interstitial_cpu_sec =
      interstitial_cpu_sec_ +
      static_cast<std::uint64_t>(busy_interstitial_cpus_) * dt;
  return p;
}

void BatchScheduler::pass(SimTime now) {
  ISTC_ASSERT(!in_pass_);
  in_pass_ = true;
  ++stats_.passes;
  stats_.max_queue_length = std::max(stats_.max_queue_length, pending_.size());
  // Pass timing is one chained sequence of clock reads at segment
  // boundaries, so stage_setup_us + sum(stage_us) == sched_pass_us_total
  // holds exactly by construction (pinned by tests).  Wall-clock cost
  // lands in the summary only, never the event stream.  The obs stage
  // profiler shares the same lap chain, and samples 1 in 16 passes: a
  // pass is often only a few microseconds, so timing every one would
  // make the profiler the dominant cost of the thing it profiles.
  const bool counters = ISTC_TRACE_COUNTERS_ON(tracer_);
  const bool profiled = obs::enabled() && (obs_sample_tick_++ & 15u) == 0;
  const bool timed = counters || profiled;
  std::uint64_t pass_us = 0;
  std::chrono::steady_clock::time_point mark{};
  if (timed) mark = std::chrono::steady_clock::now();
  const auto lap = [&mark]() -> std::uint64_t {
    const auto t1 = std::chrono::steady_clock::now();
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - mark)
            .count());
    mark = t1;
    return us;
  };

  // Wakes scheduled at or before this instant have fired.
  queued_wakes_.erase(queued_wakes_.begin(), queued_wakes_.upper_bound(now));

  prepare_profile(now);

  pass_state_.reset(now, pending_.size());
  if (timed) {
    const std::uint64_t us = lap();
    if (counters) tracer_->counters().stage_setup_us += us;
    if (profiled) obs::observe_stage_us(obs::Stage::kSchedSetup, us);
    pass_us += us;
  }
  for (const auto& stage : pipeline_) {
    stage->run(*this, pass_state_);
    if (!timed) continue;
    const std::uint64_t us = lap();
    const auto slot = static_cast<int>(stage->kind());
    if (counters) {
      auto& c = tracer_->counters();
      c.stage_us[slot] += us;
      ++c.stage_runs[slot];
    }
    if (profiled) {
      obs::observe_stage_us(
          static_cast<obs::Stage>(
              static_cast<int>(obs::Stage::kSchedPriority) + slot),
          us);
    }
    pass_us += us;
  }
  if (counters) {
    auto& c = tracer_->counters();
    ++c.sched_passes;
    c.sched_pass_us_total += pass_us;
    c.sched_pass_us_max = std::max(c.sched_pass_us_max, pass_us);
  }
  // GateStage cleared in_pass_ and ran the post-pass hook.
  ISTC_ASSERT(!in_pass_);
}

bool BatchScheduler::could_start_with_kills(const workload::Job& job,
                                            SimTime now) const {
  int reclaimable = machine_.free_cpus();
  for (std::uint32_t s = 0; s < store_.slots(); ++s) {
    if (store_.state(s) == SlotState::kRunning && store_.interstitial(s)) {
      reclaimable += store_.cpus(s);
    }
  }
  if (reclaimable < job.cpus) return false;
  if (!machine_.downtime().can_run(now, job.estimate)) return false;
  if (policy_.time_of_day && !policy_.time_of_day->allowed(job, now)) {
    return false;
  }
  return true;
}

void BatchScheduler::kill_running_job(std::uint32_t slot, KillReason reason) {
  ISTC_ASSERT(store_.state(slot) == SlotState::kRunning);
  const workload::Job& job = store_.job(slot);
  const SimTime start = store_.start(slot);
  const SimTime est_end = store_.est_end(slot);
  const SimTime now = engine_.now();
  advance_busy_integrals(now);
  if (job.interstitial()) {
    busy_interstitial_cpus_ -= job.cpus;
    --running_interstitial_;
  } else {
    busy_native_cpus_ -= job.cpus;
    --running_native_;
  }
  trace_job(trace::EventKind::kJobKill, job, static_cast<std::int64_t>(reason),
            start);
  machine_.release(job.cpus);
  // Permanent profile delta: the victim's remaining reservation goes away
  // (its origin-side history was already chopped by advance_origin).  A
  // fault kill can race a same-instant completion estimate: when est_end
  // == now nothing of the reservation lies in the future.
  if (est_end > now) profile_.release(now, est_end, job.cpus);
  killed_records_.push_back(JobRecord{job, start, now});
  // The slot parks as a zombie: the queued finish event still references
  // it, and its firing frees the slot.
  store_.mark_zombie(slot);
  if (job.interstitial()) ++stats_.interstitial_kills;
  if (ISTC_TRACE_COUNTERS_ON(tracer_)) {
    auto& c = tracer_->counters();
    if (reason == KillReason::kPreempted) {
      ++c.interstitial_killed;
    } else {
      ++(job.interstitial() ? c.fault_killed_interstitial
                            : c.fault_killed_native);
    }
  }
  if (on_kill_) on_kill_(killed_records_.back(), reason);
}

bool BatchScheduler::preempt_for(const workload::Job& job, SimTime now) {
  // Youngest interstitial first: the least work is thrown away.  One scan
  // over the hot state/class columns collects the candidates.
  victim_buf_.clear();
  for (std::uint32_t s = 0; s < store_.slots(); ++s) {
    if (store_.state(s) == SlotState::kRunning && store_.interstitial(s)) {
      victim_buf_.push_back(s);
    }
  }
  std::sort(victim_buf_.begin(), victim_buf_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (store_.start(a) != store_.start(b)) {
                return store_.start(a) > store_.start(b);
              }
              return store_.id(a) > store_.id(b);
            });
  for (const std::uint32_t v : victim_buf_) {
    if (profile_.min_free(now, now + job.estimate) >= job.cpus) break;
    kill_running_job(v, KillReason::kPreempted);
  }
  return profile_.min_free(now, now + job.estimate) >= job.cpus;
}

std::vector<JobRecord> BatchScheduler::fail_capacity(int cpus, SimTime until,
                                                     KillReason reason) {
  const SimTime now = engine_.now();
  ISTC_EXPECTS(until > now);
  ISTC_EXPECTS(reason != KillReason::kPreempted);
  // Overlapping failures compose: a second fault can only take down what
  // is still up.
  cpus = std::min(cpus, machine_.total_cpus() - failed_cpus_);
  if (cpus <= 0) return {};
  const std::size_t first_killed = killed_records_.size();
  if (machine_.free_cpus() < cpus) {
    // Youngest running job first (least work lost), natives and
    // interstitials alike: an unplanned failure spares nobody.  Sorted by
    // (start, id) so fault schedules are independent of storage order.
    victim_buf_.clear();
    for (std::uint32_t s = 0; s < store_.slots(); ++s) {
      if (store_.state(s) == SlotState::kRunning) victim_buf_.push_back(s);
    }
    std::sort(victim_buf_.begin(), victim_buf_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                if (store_.start(a) != store_.start(b)) {
                  return store_.start(a) > store_.start(b);
                }
                return store_.id(a) > store_.id(b);
              });
    for (const std::uint32_t s : victim_buf_) {
      if (machine_.free_cpus() >= cpus) break;
      kill_running_job(s, reason);
    }
  }
  ISTC_ASSERT(machine_.free_cpus() >= cpus);
  machine_.allocate(cpus);
  failed_cpus_ += cpus;
  // The downed capacity is a reservation ending at the repair time, so
  // backfill plans around the outage exactly like around running jobs.
  profile_.reserve(now, until, cpus);
  const std::uint32_t outage_id = next_outage_id_++;
  outages_.push_back(CapacityOutage{outage_id, cpus, until});
  // Typed repair event: the queue holds a POD entry carrying the outage
  // id, not a closure (run forks require a closure-free mid-run queue).
  engine_.schedule_capacity_repair(until, outage_id);
  return {killed_records_.begin() +
              static_cast<std::ptrdiff_t>(first_killed),
          killed_records_.end()};
}

void BatchScheduler::capacity_repair(std::uint32_t outage_id) {
  const auto it =
      std::find_if(outages_.begin(), outages_.end(),
                   [outage_id](const CapacityOutage& o) {
                     return o.id == outage_id;
                   });
  ISTC_ASSERT(it != outages_.end());
  const int cpus = it->cpus;
  ISTC_ASSERT(it->until == engine_.now());
  machine_.release(cpus);
  failed_cpus_ -= cpus;
  ISTC_ASSERT(failed_cpus_ >= 0);
  outages_.erase(it);
  // The matching profile reservation ran [failure, until) and expires at
  // this very instant — no release needed; the quiescent pass that follows
  // this event re-dispatches onto the restored CPUs.
  if (ISTC_TRACE_EVENTS_ON(tracer_)) {
    trace::TraceEvent e;
    e.time = engine_.now();
    e.kind = trace::EventKind::kFaultRepair;
    e.cpus = cpus;
    tracer_->record(e);
  }
}

bool BatchScheduler::try_start_immediately(const workload::Job& job) {
  job.check();
  const SimTime now = engine_.now();
  if (job.cpus > machine_.free_cpus()) return false;
  if (!machine_.downtime().can_run(now, job.estimate)) return false;
  if (policy_.time_of_day && !policy_.time_of_day->allowed(job, now)) {
    return false;
  }
  // Meta-backfilled jobs never enter the queue: submit and start coincide.
  trace_job(trace::EventKind::kJobSubmit, job, job.estimate);
  start_job(store_.acquire(job), now);
  return true;
}

RunResult BatchScheduler::take_result(SimTime span) {
  ISTC_EXPECTS(pending_.empty());
  ISTC_EXPECTS(running_count() == 0);
  // A drained run has fired every finish event, so no zombie slot (or any
  // live slot) can remain.
  ISTC_EXPECTS(store_.live() == 0);
  RunResult result;
  result.machine = machine_.spec();
  result.span = span;
  result.sim_end = engine_.now();
  result.records = records_.take();
  result.killed = std::move(killed_records_);
  if (tracer_ != nullptr) result.trace = tracer_->summary();
  killed_records_.clear();
  return result;
}

}  // namespace istc::sched
