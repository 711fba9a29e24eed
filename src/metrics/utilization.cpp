#include "metrics/utilization.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace istc::metrics {

bool passes(const sched::JobRecord& r, JobFilter f) {
  switch (f) {
    case JobFilter::kAll: return true;
    case JobFilter::kNativeOnly: return !r.interstitial();
    case JobFilter::kInterstitialOnly: return r.interstitial();
  }
  return false;
}

double busy_cpu_seconds(std::span<const sched::JobRecord> records, SimTime lo,
                        SimTime hi, JobFilter filter) {
  ISTC_EXPECTS(hi > lo);
  double busy = 0;
  for (const auto& r : records) {
    if (!passes(r, filter)) continue;
    const SimTime a = std::max(lo, r.start);
    const SimTime b = std::min(hi, r.end);
    if (b > a) {
      busy += static_cast<double>(r.job.cpus) * static_cast<double>(b - a);
    }
  }
  return busy;
}

double average_utilization(std::span<const sched::JobRecord> records,
                           int machine_cpus, SimTime lo, SimTime hi,
                           JobFilter filter) {
  ISTC_EXPECTS(machine_cpus > 0);
  return busy_cpu_seconds(records, lo, hi, filter) /
         (static_cast<double>(machine_cpus) * static_cast<double>(hi - lo));
}

std::vector<double> utilization_series(
    std::span<const sched::JobRecord> records, int machine_cpus, SimTime span,
    Seconds bucket, JobFilter filter) {
  ISTC_EXPECTS(machine_cpus > 0);
  ISTC_EXPECTS(bucket > 0);
  ISTC_EXPECTS(span > 0);
  const auto nbuckets = static_cast<std::size_t>((span + bucket - 1) / bucket);
  std::vector<double> busy(nbuckets, 0.0);
  for (const auto& r : records) {
    if (!passes(r, filter)) continue;
    const SimTime a = std::max<SimTime>(0, r.start);
    const SimTime b = std::min(span, r.end);
    if (b <= a) continue;
    auto first = static_cast<std::size_t>(a / bucket);
    const auto last = static_cast<std::size_t>((b - 1) / bucket);
    for (std::size_t k = first; k <= last && k < nbuckets; ++k) {
      const SimTime blo = static_cast<SimTime>(k) * bucket;
      const SimTime bhi = blo + bucket;
      const SimTime ov =
          std::min(b, bhi) - std::max(a, blo);
      busy[k] += static_cast<double>(r.job.cpus) * static_cast<double>(ov);
    }
  }
  const double denom =
      static_cast<double>(machine_cpus) * static_cast<double>(bucket);
  for (auto& v : busy) v /= denom;
  return busy;
}

std::vector<std::pair<SimTime, int>> busy_step_function(
    std::span<const sched::JobRecord> records, JobFilter filter) {
  // (time, cpu delta) events, sorted once; equal times merge in the sweep.
  std::vector<std::pair<SimTime, int>> delta;
  delta.reserve(2 * records.size());
  for (const auto& r : records) {
    if (!passes(r, filter)) continue;
    if (r.end <= r.start) continue;
    delta.emplace_back(r.start, r.job.cpus);
    delta.emplace_back(r.end, -r.job.cpus);
  }
  std::sort(delta.begin(), delta.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<SimTime, int>> steps;
  steps.reserve(delta.size() + 1);
  steps.emplace_back(0, 0);
  int busy = 0;
  for (std::size_t i = 0; i < delta.size();) {
    const SimTime t = delta[i].first;
    for (; i < delta.size() && delta[i].first == t; ++i) {
      busy += delta[i].second;
    }
    ISTC_ASSERT(busy >= 0);
    if (steps.back().first == t) {
      steps.back().second = busy;
    } else {
      steps.emplace_back(t, busy);
    }
  }
  ISTC_ENSURES(busy == 0);
  return steps;
}

}  // namespace istc::metrics
