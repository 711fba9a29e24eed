#include "service/tail_run.hpp"

#include <algorithm>

#include "sched/presets.hpp"
#include "util/assert.hpp"

namespace istc::service {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

TailRun::TailRun(const TailConfig& cfg)
    : site_(cfg.site),
      span_(cluster::site_span(cfg.site)) {
  scheduler_ = std::make_unique<sched::BatchScheduler>(
      engine_, cluster::make_machine(site_), sched::site_policy(site_));
  if (cfg.stream) {
    driver_.emplace(*scheduler_, *cfg.stream, kStreamIdBase);
  }
}

TailRun::TailRun(TailRun& other)
    : site_(other.site_), span_(other.span_) {
  // Same order as SimRun's fork constructor: the engine snapshot first,
  // then the scheduler clone registers itself as the new engine's sink,
  // then the driver clone re-registers its hooks on the new scheduler.
  engine_.adopt_state(other.engine_);
  scheduler_ =
      std::make_unique<sched::BatchScheduler>(engine_, *other.scheduler_);
  if (other.driver_) driver_.emplace(*scheduler_, *other.driver_);
}

std::unique_ptr<TailRun> TailRun::fork() {
  return std::unique_ptr<TailRun>(new TailRun(*this));
}

void TailRun::run_until(SimTime t) {
  while (engine_.next_event_time() <= t) engine_.step();
}

void TailRun::add_stream(const core::ProjectSpec& spec,
                         workload::JobId first_id) {
  ISTC_EXPECTS(!driver_);
  core::ProjectSpec bounded = spec;
  bounded.start_time = std::max(bounded.start_time, engine_.now());
  driver_.emplace(*scheduler_, bounded, first_id);
}

sched::RunResult TailRun::finish() {
  engine_.run();
  return scheduler_->take_result(span_);
}

std::uint64_t TailRun::state_hash() const {
  std::uint64_t h = kFnvOffset;
  const auto& records = scheduler_->completed_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sched::JobRecord& r = records[i];
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.id));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.start));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.end));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.cpus));
  }
  for (const sched::JobRecord& r : scheduler_->killed_records()) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.job.id));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.start));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.end));
  }
  h = fnv1a_u64(h, static_cast<std::uint64_t>(engine_.now()));
  return h;
}

}  // namespace istc::service
