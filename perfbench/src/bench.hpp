#pragma once

// Shared plumbing for the benchmark workloads: options, clocks, quantiles,
// process memory, pool-gauge deltas and the metric report that ends every
// run with one JSON line.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string istc;     ///< path of the `istc` CLI (the what-if daemon)
  std::string tmp_dir;  ///< working directory for daemon sockets and logs
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs a workload's instances round-robin and keeps each one's best wall.
/// `run(i)` runs instance i once and returns its timed wall in seconds.
/// Every instance runs once; then further rounds continue while the next
/// repeat, if it takes as long as its best so far, ends inside `seconds`
/// from the start.  On a shared host the same replay runs up to 1.8x
/// slower for stretches of seconds to tens of seconds (one Ross replay
/// measured 0.30-0.58 s over a minute on a 4-vCPU VM); repeats spread over
/// the run and the best of them leave those stretches out.
template <class Run>
std::vector<double> best_walls(int instances, double seconds, Run&& run) {
  std::vector<double> best(static_cast<std::size_t>(instances), 0.0);
  const auto t0 = Clock::now();
  for (int i = 0; i < instances; ++i) {
    best[static_cast<std::size_t>(i)] = run(i);
  }
  for (int i = 0;; i = (i + 1) % instances) {
    double& b = best[static_cast<std::size_t>(i)];
    if (seconds_since(t0) + b > seconds) break;
    b = std::min(b, run(i));
  }
  return best;
}

/// util::Summary's quantile (q in [0, 1]) and util::median_of, except that
/// an empty sample (every request of a phase failed) reads 0 instead of
/// failing a precondition.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Peak resident set (VmHWM) of a process in MB; "self" for this one.
/// Returns 0 when /proc is unreadable.
double peak_rss_mb(const std::string& pid = "self");

/// ThreadPool::global_stats() delta over a section: pools and tasks are
/// differences, high-water marks are the process-wide marks at the end.
struct PoolDelta {
  istc::PoolStats before = istc::ThreadPool::global_stats();
  istc::PoolStats end() const;
};

/// Collects metrics and the pass/fail tally, prints the human-readable
/// lines as it goes and the final JSON object last.
class Report {
 public:
  /// One operation attempted; `ok` false counts it as failed.  `what`
  /// names the failure in the log.
  void op(bool ok, const std::string& what = "");

  void metric(const std::string& name, double value, const std::string& unit);
  /// A number printed for the reader only (not in the JSON metrics).
  void note(const std::string& name, double value, const std::string& unit);

  std::uint64_t failed() const { return failed_; }
  /// A metric recorded earlier (0 if absent).
  double value(const std::string& name) const;

  /// Text form of the metrics and the tally, and its inverse: a forked
  /// child hands its results to the parent this way.
  std::string serialize() const;
  void absorb(const std::string& text);

  /// Print the final JSON line.  `correct` is false if any check failed.
  void finish() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// One entry point per workload; each adds its metrics to the report.
void run_harvest(const Options& opt, Report& report);
void run_omniscient(const Options& opt, Report& report);
void run_whatif(const Options& opt, Report& report);
void run_fleet(const Options& opt, Report& report);
/// The traced run: every per-layer metric, measured from in-process calls.
void run_layers(const Options& opt, Report& report);

}  // namespace perfbench
