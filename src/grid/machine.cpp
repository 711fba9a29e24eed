#include "grid/machine.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace istc::grid {

GridMachine::GridMachine(MachineSetup setup)
    : setup_(std::move(setup)),
      name_(setup_.name.empty() ? setup_.spec.name : setup_.name),
      tracer_(trace::TraceMode::kCountersOnly) {
  scheduler_ = std::make_unique<sched::BatchScheduler>(
      engine_, cluster::Machine(setup_.spec, setup_.downtime), setup_.policy);
  scheduler_->set_tracer(&tracer_);
  scheduler_->load(setup_.natives);
  next_local_id_ = setup_.first_interstitial_id.value_or(
      static_cast<workload::JobId>(setup_.natives.size()));
  if (setup_.local_project) {
    driver_.emplace(*scheduler_, *setup_.local_project, next_local_id_);
  } else {
    register_port_hooks();
  }
  if (setup_.faults.enabled()) injector_.emplace(*scheduler_, setup_.faults);
}

GridMachine::GridMachine(GridMachine& other)
    : setup_(other.setup_),
      name_(other.name_),
      tracer_(trace::TraceMode::kCountersOnly),
      next_local_id_(other.next_local_id_),
      arrivals_(other.arrivals_),
      landed_(other.landed_),
      running_(other.running_),
      reports_(other.reports_),
      stats_(other.stats_) {
  // Share the delivery logs copy-on-write: freeze the source's prefix so
  // both sides append privately, and in-flight kGridArrival events (whose
  // args index these logs) resolve identically in either machine.
  other.delivery_jobs_.freeze();
  other.delivery_spans_.freeze();
  delivery_jobs_ = other.delivery_jobs_;
  delivery_spans_ = other.delivery_spans_;
  // Same order as SimRun's fork ctor: engine snapshot first (adopt_state
  // checks the queue holds no boxed callbacks — guaranteed since the port
  // delivers through typed events), then the scheduler clone registers
  // itself on the new engine, then driver/injector clones or the port
  // hooks re-attach to the new stack.
  engine_.adopt_state(other.engine_);
  scheduler_ =
      std::make_unique<sched::BatchScheduler>(engine_, *other.scheduler_);
  scheduler_->set_tracer(&tracer_);
  if (other.driver_) {
    driver_.emplace(*scheduler_, *other.driver_);
  } else {
    register_port_hooks();
  }
  if (other.injector_) injector_.emplace(*scheduler_, *other.injector_);
}

std::unique_ptr<GridMachine> GridMachine::fork() {
  return std::unique_ptr<GridMachine>(new GridMachine(*this));
}

void GridMachine::register_port_hooks() {
  scheduler_->set_post_pass_hook(
      [this](const sched::PassContext& ctx) { on_pass(ctx); });
  scheduler_->set_kill_hook(
      [this](const sched::JobRecord& victim, sched::KillReason reason) {
        on_kill(victim, reason);
      });
  engine_.set_grid_hook([this](std::uint32_t span) { on_arrival(span); });
}

void GridMachine::advance(SimTime until) {
  while (engine_.next_event_time() <= until) engine_.step();
}

SimTime GridMachine::next_report_time(SimTime asap) const {
  SimTime t = kTimeInfinity;
  if (!reports_.empty()) t = asap;
  // An in-flight or landed job resolves (start or bounce) no later than
  // its arrival plus the patience window.
  for (const SimTime at : arrivals_) {
    t = std::min(t, std::max(at + setup_.bounce_patience, asap));
  }
  for (const auto& l : landed_) {
    t = std::min(t, std::max(l.arrived + setup_.bounce_patience, asap));
  }
  for (const auto& r : running_) t = std::min(t, r.end);
  return t;
}

void GridMachine::deliver_batch(SimTime at, std::span<const GridJob> jobs) {
  obs::ScopedSpan span("grid.deliver",
                       static_cast<std::int64_t>(jobs.size()));
  ISTC_EXPECTS(accepts_routed());
  ISTC_EXPECTS(at >= engine_.now());
  ISTC_EXPECTS(!jobs.empty());
  const std::size_t begin = delivery_jobs_.size();
  for (const GridJob& job : jobs) delivery_jobs_.push_back(job);
  const std::size_t span_index = delivery_spans_.size();
  ISTC_ASSERT(begin + jobs.size() <= UINT32_MAX && span_index <= UINT32_MAX);
  delivery_spans_.push_back({static_cast<std::uint32_t>(begin),
                             static_cast<std::uint32_t>(jobs.size())});
  stats_.delivered += jobs.size();
  arrivals_.push_back(at);
  engine_.schedule_grid_arrival(at, static_cast<std::uint32_t>(span_index));
}

void GridMachine::on_arrival(std::uint32_t span_index) {
  ISTC_ASSERT(!arrivals_.empty());
  arrivals_.pop_front();
  const DeliverySpan s = delivery_spans_[span_index];
  for (std::uint32_t k = 0; k < s.count; ++k) {
    landed_.push_back({delivery_jobs_[s.begin + k], engine_.now()});
  }
}

void GridMachine::on_pass(const sched::PassContext& ctx) {
  if (landed_.empty()) return;
  std::size_t kept = 0;
  for (auto& l : landed_) {
    const Seconds runtime = runtime_for(l.job.work_per_cpu);
    // The Figure-1 gate, same predicate as InterstitialDriver: start only
    // when no waiting native could (per estimates) start before this job
    // would finish.
    const bool gate_open =
        ctx.queue_empty || ctx.queue_earliest_start - ctx.now > runtime;
    bool started = false;
    if (gate_open) {
      workload::Job j;
      j.id = next_local_id_;
      j.klass = workload::JobClass::kInterstitial;
      j.user = core::kInterstitialUser;
      j.group = core::kInterstitialGroup;
      j.cpus = l.job.cpus;
      j.submit = l.arrived;
      j.runtime = runtime;
      j.estimate = runtime;
      if (scheduler_->try_start_immediately(j)) {
        ++next_local_id_;
        ++stats_.started;
        running_.push_back({j.id, l.job, ctx.now, ctx.now + runtime});
        started = true;
      }
    }
    if (!started) landed_[kept++] = l;
  }
  landed_.resize(kept);
}

void GridMachine::on_kill(const sched::JobRecord& victim,
                          sched::KillReason /*reason*/) {
  if (!victim.job.interstitial()) return;  // native requeue is the injector's
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [&](const RunningGrid& r) { return r.local_id == victim.job.id; });
  if (it == running_.end()) return;
  const Seconds elapsed = victim.end - victim.start;
  // Checkpoint arithmetic mirrors InterstitialDriver::on_fault_kill: work
  // up to the last checkpoint survives; the remainder is re-routed by the
  // broker (possibly to a machine with a different clock, which is why the
  // remainder travels as machine-neutral cycles).
  const Seconds saved =
      it->job.checkpoint > 0 ? (elapsed / it->job.checkpoint) * it->job.checkpoint
                             : 0;
  GridJob rest = it->job;
  rest.work_per_cpu -= machine().spec().cycles_in(saved);
  ISTC_ASSERT(rest.work_per_cpu > 0);
  ++stats_.killed;
  reports_.push_back(
      {ReportKind::kKilled, rest, victim.end,
       static_cast<std::uint64_t>(it->job.cpus) *
           static_cast<std::uint64_t>(elapsed)});
  running_.erase(it);
}

void GridMachine::collect_reports(SimTime now, std::vector<PortReport>& out) {
  out.insert(out.end(), reports_.begin(), reports_.end());
  reports_.clear();
  std::size_t kept = 0;
  for (auto& r : running_) {
    if (r.end <= now) {
      ++stats_.completed;
      out.push_back({ReportKind::kCompleted, r.job, r.end,
                     static_cast<std::uint64_t>(r.job.cpus) *
                         static_cast<std::uint64_t>(r.end - r.start)});
    } else {
      running_[kept++] = r;
    }
  }
  running_.resize(kept);
  kept = 0;
  for (auto& l : landed_) {
    if (l.arrived + setup_.bounce_patience <= now) {
      ++stats_.bounced;
      out.push_back({ReportKind::kBounced, l.job, now, 0});
    } else {
      landed_[kept++] = l;
    }
  }
  landed_.resize(kept);
}

int GridMachine::lookahead_min_free(SimTime t, Seconds dur) const {
  const sched::ResourceProfile& profile = scheduler_->profile();
  const SimTime start = std::max(t, profile.origin());
  return profile.min_free(start, start + std::max<Seconds>(dur, 1));
}

}  // namespace istc::grid
