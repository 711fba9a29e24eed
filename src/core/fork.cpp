#include "core/fork.hpp"

#include <algorithm>

#include "metrics/report.hpp"
#include "sched/presets.hpp"
#include "util/assert.hpp"
#include "workload/presets.hpp"

namespace istc::core {

SimRun::SimRun(const Scenario& scenario)
    : site_(scenario.site),
      span_(cluster::site_span(scenario.site)),
      metrics_(scenario.metrics) {
  workload::JobLog log = scenario.log_seed == 0
                             ? workload::site_log(site_)
                             : workload::site_log(site_, scenario.log_seed);
  if (scenario.perfect_estimates) {
    log = workload::with_perfect_estimates(log);
  }
  if (scenario.native_time_factor != 1.0 ||
      scenario.native_size_factor != 1.0) {
    log = workload::with_scaled_jobs(log, scenario.native_time_factor,
                                     scenario.native_size_factor,
                                     cluster::machine_spec(site_).cpus);
  }

  sched::PolicySpec policy = sched::site_policy(site_);
  policy.preempt_interstitial = scenario.preempt_interstitial;
  if (scenario.backfill) policy.backfill = *scenario.backfill;
  scheduler_ = std::make_unique<sched::BatchScheduler>(
      engine_, cluster::make_machine(site_), std::move(policy));
  if (scenario.tracer != nullptr) scheduler_->set_tracer(scenario.tracer);
  scheduler_->load(log);

  if (scenario.project) {
    driver_.emplace(*scheduler_, *scenario.project,
                    static_cast<workload::JobId>(log.size()));
  }

  // Constructed after the driver so the fault timeline's event sequence
  // numbers follow the driver's initial wake — times are unaffected.
  if (scenario.faults.enabled()) {
    fault::FaultSpec faults = scenario.faults;
    faults.stop = std::min(faults.stop, span_);
    injector_.emplace(*scheduler_, faults);
  }

  // Attached last so the sampler's first tick follows every constructor's
  // initial events in sequence order; attach only observes the run.
  if (metrics_ != nullptr) {
    metrics_->attach(engine_, *scheduler_, span_);
  }
}

SimRun::SimRun(SimRun& other)
    : site_(other.site_), span_(other.span_) {
  // Order matters: the engine snapshot first (adopt_state checks that no
  // sample is pending and the queue holds no boxed callbacks), then the
  // scheduler clone registers itself as the new engine's sink, then the
  // driver/injector clones re-register their hooks on the new scheduler.
  engine_.adopt_state(other.engine_);
  scheduler_ =
      std::make_unique<sched::BatchScheduler>(engine_, *other.scheduler_);
  if (other.driver_) driver_.emplace(*scheduler_, *other.driver_);
  if (other.injector_) injector_.emplace(*scheduler_, *other.injector_);
}

std::unique_ptr<SimRun> SimRun::fork() {
  return std::unique_ptr<SimRun>(new SimRun(*this));
}

void SimRun::run_until(SimTime t) {
  while (engine_.next_event_time() <= t) engine_.step();
}

void SimRun::add_faults(fault::FaultSpec spec) {
  ISTC_EXPECTS(!injector_);
  ISTC_EXPECTS(spec.start >= engine_.now());
  spec.stop = std::min(spec.stop, span_);
  injector_.emplace(*scheduler_, spec);
}

sched::RunResult SimRun::finish() {
  engine_.run();
  sched::RunResult result = scheduler_->take_result(span_);
  if (metrics_ != nullptr) metrics_->ingest(result);
  return result;
}

}  // namespace istc::core
