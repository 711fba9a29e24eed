#include "core/omniscient.hpp"

#include <algorithm>
#include <span>

#include "metrics/utilization.hpp"
#include "sched/resource_profile.hpp"
#include "util/assert.hpp"

namespace istc::core {

namespace {
/// Free-capacity steps the packer lays into its profile per extension.
/// Small enough that the live profile mostly stays below the hole index's
/// default threshold (256 steps), where the linear scans need no index
/// rebuild after every batch: on the Table 2 cells 32-128 run alike and
/// 512 runs about 3x slower.
constexpr std::size_t kPackChunkSteps = 128;
}  // namespace

FreeCapacity::FreeCapacity(std::span<const sched::JobRecord> native_records,
                           const cluster::Machine& machine)
    : capacity_(machine.total_cpus()) {
  const auto busy = metrics::busy_step_function(
      native_records, metrics::JobFilter::kNativeOnly);
  const auto& windows = machine.downtime().windows();  // sorted, disjoint
  // free = capacity - busy, with every downtime window carved out to 0:
  // one merge of the busy steps with the window bounds.  A window bound
  // gets a breakpoint of its own (a start only when it lies after the
  // first step).
  const SimTime first = busy.front().first;
  std::vector<SimTime> bounds;
  bounds.reserve(windows.size() * 2);
  for (const auto& w : windows) {
    if (w.start > first) bounds.push_back(w.start);
    ISTC_ASSERT(w.end >= first);
    bounds.push_back(w.end);
  }
  steps_.reserve(busy.size() + bounds.size());
  std::size_t i = 0;    // next busy step
  std::size_t k = 0;    // next window bound
  std::size_t win = 0;  // first window not yet behind the sweep
  int free_here = capacity_;
  while (i < busy.size() || k < bounds.size()) {
    const SimTime t =
        k == bounds.size() || (i < busy.size() && busy[i].first <= bounds[k])
            ? busy[i].first
            : bounds[k];
    if (i < busy.size() && busy[i].first == t) {
      ISTC_ASSERT(busy[i].second <= capacity_);
      free_here = capacity_ - busy[i].second;
      ++i;
    }
    while (k < bounds.size() && bounds[k] == t) ++k;
    while (win < windows.size() && windows[win].end <= t) ++win;
    const bool down = win < windows.size() && windows[win].start <= t;
    // Nothing native runs inside a window (the scheduler drains), so the
    // free value there is `capacity`; downtime replaces it with 0.
    if (down) ISTC_ASSERT(free_here == capacity_);
    steps_.emplace_back(t, down ? 0 : free_here);
  }
}

int FreeCapacity::free_at(SimTime t) const {
  ISTC_EXPECTS(!steps_.empty());
  if (t < steps_.front().first) return capacity_;
  auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](SimTime v, const auto& s) { return v < s.first; });
  return std::prev(it)->second;
}

double FreeCapacity::average_free_fraction(SimTime lo, SimTime hi) const {
  ISTC_EXPECTS(hi > lo);
  double free_area = 0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const SimTime a = std::max(lo, steps_[i].first);
    const SimTime b =
        std::min(hi, i + 1 < steps_.size() ? steps_[i + 1].first : hi);
    if (b > a) {
      free_area += static_cast<double>(steps_[i].second) *
                   static_cast<double>(b - a);
    }
  }
  // Before the first step (t < steps_[0].first) the machine is empty.
  if (lo < steps_.front().first) {
    free_area += static_cast<double>(capacity_) *
                 static_cast<double>(std::min(hi, steps_.front().first) - lo);
  }
  return free_area /
         (static_cast<double>(capacity_) * static_cast<double>(hi - lo));
}

OmniscientResult pack_omniscient(const FreeCapacity& free,
                                 const cluster::Machine& machine,
                                 const ProjectSpec& spec,
                                 SimTime project_start) {
  ISTC_EXPECTS(!spec.continual());
  ISTC_EXPECTS(spec.cpus_per_job <= machine.total_cpus());
  const Seconds r = spec.runtime_on(machine.spec());
  const int n = spec.cpus_per_job;

  // The profile holds the free capacity less this project's reservations,
  // exactly, only up to `horizon`; past it sits a placeholder of full
  // capacity.  Steps are laid in a chunk at a time, only once a fit window
  // reaches past the horizon.  The placeholder never rejects a candidate
  // start, so a fit that ends within the horizon is the true earliest fit.
  // The first chunk starts at the step in force at project_start.
  const auto& steps = free.steps();
  const auto covering = std::upper_bound(
      steps.begin(), steps.end(), project_start,
      [](SimTime v, const auto& s) { return v < s.first; });
  auto next = static_cast<std::size_t>(covering - steps.begin());
  if (next > 0) --next;
  sched::ResourceProfile profile(project_start, machine.total_cpus());
  SimTime horizon = project_start;
  auto extend = [&] {
    const std::size_t end = std::min(steps.size(), next + kPackChunkSteps);
    horizon = end < steps.size() ? steps[end].first : kTimeInfinity;
    profile.extend(std::span(steps).subspan(next, end - next), horizon);
    next = end;
  };

  OmniscientResult result;
  std::size_t remaining = spec.total_jobs;
  SimTime t = project_start;
  SimTime last_end = project_start;
  while (remaining > 0) {
    SimTime fit = profile.earliest_fit(n, r, t);
    while (fit + r > horizon) {
      extend();
      fit = profile.earliest_fit(n, r, t);
    }
    t = fit;
    const int window_min = profile.min_free(t, t + r);
    auto batch = static_cast<std::size_t>(window_min / n);
    ISTC_ASSERT(batch >= 1);
    batch = std::min(batch, remaining);
    profile.reserve(t, t + r, static_cast<int>(batch) * n);
    // Later fits start no earlier than t: the past is never asked again.
    profile.advance_origin(t);
    remaining -= batch;
    last_end = std::max(last_end, t + r);
    result.batches.emplace_back(t, batch);
    result.jobs_placed += batch;
  }
  result.makespan = last_end - project_start;
  return result;
}

}  // namespace istc::core
