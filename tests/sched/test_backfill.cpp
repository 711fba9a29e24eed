// Randomized property tests of the backfill scheduler: for fuzzed job
// streams under both backfill modes, the produced schedule must satisfy the
// physical and policy invariants regardless of seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cluster/downtime.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace istc::sched {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  BackfillMode mode;
  /// Explicit zeroed tail instead of compiler padding: gtest prints the
  /// parameter's raw bytes into the listed test name, so indeterminate
  /// padding would make `ctest -N` names differ from build to build.
  std::uint8_t zero_tail[7] = {};
};
static_assert(sizeof(FuzzCase) == 16, "no padding bytes left to print");

class BackfillFuzz : public ::testing::TestWithParam<FuzzCase> {};

constexpr int kCpus = 48;

std::vector<workload::Job> fuzz_jobs(Rng& rng, std::size_t n) {
  std::vector<workload::Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    workload::Job j;
    j.id = static_cast<workload::JobId>(i);
    j.user = static_cast<workload::UserId>(rng.below(6));
    j.group = static_cast<workload::GroupId>(j.user % 3);
    j.submit = rng.range(0, 20000);
    j.cpus = static_cast<int>(rng.range(1, kCpus));
    j.runtime = rng.range(1, 800);
    j.estimate = j.runtime + rng.range(0, 2000);
    jobs.push_back(j);
  }
  return jobs;
}

TEST_P(BackfillFuzz, ScheduleInvariants) {
  const std::uint64_t seed = GetParam().seed;
  const BackfillMode mode = GetParam().mode;
  Rng rng(seed);
  cluster::DowntimeCalendar cal({{8000, 9000}, {25000, 26000}});
  sim::Engine eng;
  PolicySpec policy;
  policy.backfill = mode;
  policy.fairshare.mode = FairShareMode::kUserAndGroup;
  BatchScheduler sched(
      eng, cluster::Machine({.name = "f", .site = "", .queue_system = "",
                             .cpus = kCpus, .clock_ghz = 1.0}, cal),
      policy);

  const auto jobs = fuzz_jobs(rng, 300);
  for (const auto& j : jobs) sched.submit(j);
  eng.run();
  const RunResult result = sched.take_result(30000);

  // 1. Everything completes exactly once.
  ASSERT_EQ(result.records.size(), jobs.size());
  std::map<workload::JobId, const JobRecord*> recs;
  for (const auto& r : result.records) {
    EXPECT_TRUE(recs.emplace(r.job.id, &r).second);
  }

  // 2. Causality and duration.
  for (const auto& r : result.records) {
    EXPECT_GE(r.start, r.job.submit);
    EXPECT_EQ(r.end - r.start, r.job.runtime);
  }

  // 3. No instant oversubscribes the machine.
  std::map<SimTime, int> delta;
  for (const auto& r : result.records) {
    delta[r.start] += r.job.cpus;
    delta[r.end] -= r.job.cpus;
  }
  int busy = 0;
  for (const auto& [t, d] : delta) {
    busy += d;
    EXPECT_GE(busy, 0);
    EXPECT_LE(busy, kCpus) << "oversubscribed at t=" << t;
  }

  // 4. No job's *estimate window* crosses a downtime window, hence no job
  //    actually runs during one (estimate >= runtime).
  for (const auto& r : result.records) {
    EXPECT_TRUE(cal.can_run(r.start, r.job.estimate))
        << "job " << r.job.id << " crosses downtime";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BackfillFuzz,
    ::testing::Values(FuzzCase{1, BackfillMode::kEasy},
                      FuzzCase{2, BackfillMode::kEasy},
                      FuzzCase{3, BackfillMode::kEasy},
                      FuzzCase{4, BackfillMode::kConservative},
                      FuzzCase{5, BackfillMode::kConservative},
                      FuzzCase{6, BackfillMode::kConservative}),
    [](const ::testing::TestParamInfo<FuzzCase>& param_info) {
      return std::string(param_info.param.mode == BackfillMode::kEasy ? "easy"
                                                                : "cons") +
             std::to_string(param_info.param.seed);
    });

// kNone: strict priority order — nothing overtakes a blocked job.
TEST(NoBackfill, JuniorNeverOvertakesBlockedHead) {
  sim::Engine eng;
  PolicySpec policy;
  policy.backfill = BackfillMode::kNone;
  policy.fairshare.age_weight_per_hour = 0.0;
  policy.fairshare.size_weight = 0.0;
  BatchScheduler sched(
      eng, cluster::Machine({.name = "n", .site = "", .queue_system = "",
                             .cpus = 10, .clock_ghz = 1.0}),
      policy);
  workload::Job runner;
  runner.id = 0;
  runner.submit = 0;
  runner.cpus = 6;
  runner.runtime = 100;
  runner.estimate = 100;
  sched.submit(runner);
  workload::Job blocked;  // head, needs more than the 4 free
  blocked.id = 1;
  blocked.submit = 1;
  blocked.cpus = 8;
  blocked.runtime = 10;
  blocked.estimate = 10;
  sched.submit(blocked);
  workload::Job tiny;  // would fit beside the runner, must NOT start
  tiny.id = 2;
  tiny.submit = 2;
  tiny.cpus = 1;
  tiny.runtime = 5;
  tiny.estimate = 5;
  sched.submit(tiny);
  eng.run();
  const auto result = sched.take_result(1000);
  SimTime tiny_start = -1, blocked_start = -1;
  for (const auto& r : result.records) {
    if (r.job.id == 1) blocked_start = r.start;
    if (r.job.id == 2) tiny_start = r.start;
  }
  EXPECT_EQ(blocked_start, 100);
  EXPECT_GE(tiny_start, blocked_start);  // no overtaking
}

TEST(NoBackfill, LowerUtilizationThanEasyOnFuzzedStream) {
  // The ablation claim in one assertion: dropping backfill wastes CPUs.
  auto run_mode = [](BackfillMode mode) {
    Rng rng(11);
    sim::Engine eng;
    PolicySpec policy;
    policy.backfill = mode;
    BatchScheduler sched(
        eng, cluster::Machine({.name = "m", .site = "", .queue_system = "",
                               .cpus = kCpus, .clock_ghz = 1.0}),
        policy);
    for (const auto& j : fuzz_jobs(rng, 400)) sched.submit(j);
    eng.run();
    const auto result = sched.take_result(30000);
    return result.sim_end;  // drain time: lower is better packing
  };
  EXPECT_LT(run_mode(BackfillMode::kEasy), run_mode(BackfillMode::kNone));
}

// Work conservation: the schedule's busy integral equals the log's work.
TEST(BackfillConservation, BusyAreaEqualsWork) {
  Rng rng(42);
  sim::Engine eng;
  PolicySpec policy;
  BatchScheduler sched(
      eng, cluster::Machine({.name = "c", .site = "", .queue_system = "",
                             .cpus = kCpus, .clock_ghz = 1.0}),
      policy);
  const auto jobs = fuzz_jobs(rng, 200);
  double work = 0;
  for (const auto& j : jobs) {
    sched.submit(j);
    work += j.cpu_seconds();
  }
  eng.run();
  const auto result = sched.take_result(30000);
  double busy = 0;
  for (const auto& r : result.records) {
    busy += static_cast<double>(r.job.cpus) *
            static_cast<double>(r.end - r.start);
  }
  EXPECT_DOUBLE_EQ(busy, work);
}

// Backfill must actually help: a stream with one huge job and many small
// ones finishes the small ones while the huge job drains, in both modes.
TEST(BackfillUsefulness, SmallJobsOvertakeDrainingGiant) {
  for (auto mode : {BackfillMode::kEasy, BackfillMode::kConservative}) {
    sim::Engine eng;
    PolicySpec policy;
    policy.backfill = mode;
    BatchScheduler sched(
        eng, cluster::Machine({.name = "b", .site = "", .queue_system = "",
                               .cpus = 10, .clock_ghz = 1.0}),
        policy);
    workload::Job running;
    running.id = 0;
    running.submit = 0;
    running.cpus = 6;
    running.runtime = 1000;
    running.estimate = 1000;
    sched.submit(running);
    workload::Job giant;
    giant.id = 1;
    giant.user = 1;
    giant.submit = 10;
    giant.cpus = 10;
    giant.runtime = 100;
    giant.estimate = 100;
    sched.submit(giant);  // blocked until t=1000
    // Small short jobs that fit beside the runner and end before t=1000.
    for (workload::JobId i = 2; i < 12; ++i) {
      workload::Job s;
      s.id = i;
      s.user = 2;
      s.submit = 20;
      s.cpus = 2;
      s.runtime = 50;
      s.estimate = 50;
      sched.submit(s);
    }
    eng.run();
    const auto result = sched.take_result(5000);
    int backfilled_before_giant = 0;
    for (const auto& r : result.records) {
      if (r.job.id >= 2 && r.start < 1000) ++backfilled_before_giant;
    }
    EXPECT_GT(backfilled_before_giant, 5)
        << "mode=" << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace istc::sched
