#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sched/resource_profile.hpp"
#include "util/rng.hpp"

/// \file test_profile_extend.cpp
/// ResourceProfile::extend, the chunked fill the omniscient packer uses,
/// against the same step function seeded the long way: one reserve of
/// (capacity - free) per step.  Every case runs with the hole index forced
/// on and switched off.

namespace istc::sched {
namespace {

using Steps = std::vector<std::pair<SimTime, int>>;

/// The reference: `steps` up to `horizon` (capacity after it), seeded by
/// reservations into a fresh profile.
ResourceProfile seeded(SimTime origin, int capacity, const Steps& steps,
                       SimTime horizon) {
  ResourceProfile p(origin, capacity);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const SimTime a = std::max(origin, steps[i].first);
    const SimTime b =
        i + 1 < steps.size() ? std::max(origin, steps[i + 1].first) : horizon;
    const int used = capacity - steps[i].second;
    if (b > a && used > 0) p.reserve(a, b, used);
  }
  return p;
}

class ProfileExtend : public ::testing::TestWithParam<std::size_t> {
 protected:
  ResourceProfile fresh(SimTime origin, int capacity) const {
    ResourceProfile p(origin, capacity);
    p.set_index_threshold(GetParam());
    return p;
  }
  ResourceProfile reference(SimTime origin, int capacity, const Steps& steps,
                            SimTime horizon) const {
    ResourceProfile p = seeded(origin, capacity, steps, horizon);
    p.set_index_threshold(GetParam());
    return p;
  }
};

TEST_P(ProfileExtend, FoldsStepsAtOrBeforeTheOrigin) {
  const Steps steps{{0, 5}, {50, 3}, {120, 6}, {200, 9}};
  ResourceProfile p = fresh(100, 10);
  p.extend(steps, 300);
  EXPECT_TRUE(p.same_function(reference(100, 10, steps, 300)));
  EXPECT_EQ(p.free_at(100), 3);  // the last step at or before the origin
  EXPECT_EQ(p.free_at(150), 6);
  EXPECT_EQ(p.free_at(299), 9);
  EXPECT_EQ(p.free_at(300), 10);

  const Steps at_origin{{0, 5}, {100, 2}, {150, 4}};
  ResourceProfile q = fresh(100, 10);
  q.extend(at_origin, 200);
  EXPECT_TRUE(q.same_function(reference(100, 10, at_origin, 200)));
  EXPECT_EQ(q.free_at(100), 2);
}

TEST_P(ProfileExtend, StartsAfterTheOriginLeaveTheGapAtCapacity) {
  const Steps steps{{40, 3}, {60, 7}};
  ResourceProfile p = fresh(10, 10);
  p.extend(steps, 80);
  EXPECT_TRUE(p.same_function(reference(10, 10, steps, 80)));
  EXPECT_EQ(p.free_at(39), 10);
  EXPECT_EQ(p.free_at(40), 3);
}

TEST_P(ProfileExtend, EqualNeighboursCoalesce) {
  const Steps steps{{0, 4}, {10, 4}, {20, 6}, {30, 6}, {40, 10}};
  ResourceProfile p = fresh(0, 10);
  p.extend(steps, 50);
  EXPECT_TRUE(p.same_function(reference(0, 10, steps, 50)));
  // [0,20) = 4, [20,40) = 6, [40,inf) = 10: the last step equals the
  // placeholder and merges into it.
  EXPECT_EQ(p.steps(), 3u);
}

TEST_P(ProfileExtend, PlaceholderHoldsCapacityFromTheHorizon) {
  const Steps first{{0, 3}, {10, 5}};
  ResourceProfile p = fresh(0, 10);
  p.extend(first, 20);
  EXPECT_EQ(p.free_at(19), 5);
  EXPECT_EQ(p.free_at(20), 10);
  EXPECT_EQ(p.next_change(10), 20);
  EXPECT_EQ(p.next_change(20), kTimeInfinity);
  EXPECT_EQ(p.earliest_fit(10, 5, 0), 20);

  const Steps second{{20, 2}, {30, 7}};
  p.extend(second, 40);
  const Steps both{{0, 3}, {10, 5}, {20, 2}, {30, 7}};
  EXPECT_TRUE(p.same_function(reference(0, 10, both, 40)));
  EXPECT_EQ(p.earliest_fit(10, 5, 0), 40);
}

TEST_P(ProfileExtend, LastStepEqualToCapacity) {
  // The horizon breakpoint coalesces away; the next chunk still finds
  // the untouched placeholder and splits it where it starts.
  const Steps first{{0, 2}, {10, 10}};
  ResourceProfile p = fresh(0, 10);
  p.extend(first, 30);
  EXPECT_EQ(p.steps(), 2u);
  const Steps second{{30, 1}, {35, 10}};
  p.extend(second, 50);
  const Steps both{{0, 2}, {10, 10}, {30, 1}, {35, 10}};
  EXPECT_TRUE(p.same_function(reference(0, 10, both, 50)));
  EXPECT_EQ(p.free_at(29), 10);
  EXPECT_EQ(p.free_at(30), 1);
}

TEST_P(ProfileExtend, ReservationEndingAtTheHorizon) {
  const Steps first{{0, 6}, {10, 8}};
  ResourceProfile p = fresh(0, 10);
  p.extend(first, 20);
  p.reserve(12, 20, 8);
  const Steps second{{20, 3}, {25, 9}};
  p.extend(second, 40);

  const Steps both{{0, 6}, {10, 8}, {20, 3}, {25, 9}};
  ResourceProfile ref = reference(0, 10, both, 40);
  ref.reserve(12, 20, 8);
  EXPECT_TRUE(p.same_function(ref));
  EXPECT_EQ(p.free_at(19), 0);
  EXPECT_EQ(p.free_at(20), 3);
}

TEST_P(ProfileExtend, InfiniteHorizonKeepsTheLastStep) {
  const Steps steps{{0, 4}, {10, 7}};
  ResourceProfile p = fresh(0, 10);
  p.extend(steps, kTimeInfinity);
  EXPECT_EQ(p.free_at(1'000'000'000), 7);
  EXPECT_EQ(p.next_change(10), kTimeInfinity);
  EXPECT_EQ(p.earliest_fit(7, 100, 0), 10);
}

TEST_P(ProfileExtend, ChunkByChunkMatchesOneSeed) {
  Rng rng(0xC4A9);
  for (int trial = 0; trial < 40; ++trial) {
    const int capacity = static_cast<int>(rng.range(1, 64));
    Steps steps;
    SimTime t = static_cast<SimTime>(rng.range(0, 50));
    const auto count = static_cast<std::size_t>(rng.range(1, 700));
    for (std::size_t i = 0; i < count; ++i) {
      steps.emplace_back(t, static_cast<int>(rng.range(0, capacity)));
      t += static_cast<SimTime>(rng.range(1, 100));
    }
    const SimTime origin = static_cast<SimTime>(rng.range(0, 2000));
    const SimTime horizon = t;

    // Chunks of random length; the first one covers the origin.
    ResourceProfile p = fresh(origin, capacity);
    std::size_t next = 0;
    while (next + 1 < steps.size() && steps[next + 1].first <= origin) ++next;
    const std::span<const std::pair<SimTime, int>> all(steps);
    // Folding from the first step must agree with starting at the step in
    // force at the origin.
    if (rng.bernoulli(0.5)) next = 0;
    while (next < steps.size()) {
      const std::size_t len = std::min(
          steps.size() - next, static_cast<std::size_t>(rng.range(1, 200)));
      const std::size_t end = next + len;
      const SimTime h = end < steps.size() ? steps[end].first : horizon;
      if (h <= origin) {
        next = end;
        continue;
      }
      p.extend(all.subspan(next, len), h);
      next = end;
    }
    ResourceProfile ref = reference(origin, capacity, steps, horizon);
    ASSERT_TRUE(p.same_function(ref)) << "trial " << trial;
    // Queries agree too (not just the function): probe a few fits.
    for (int probe = 0; probe < 20; ++probe) {
      const int cpus = static_cast<int>(rng.range(1, capacity));
      const Seconds dur = static_cast<Seconds>(rng.range(1, 500));
      const SimTime from = origin + static_cast<SimTime>(rng.range(0, 5000));
      ASSERT_EQ(p.earliest_fit(cpus, dur, from),
                ref.earliest_fit(cpus, dur, from));
      ASSERT_EQ(p.min_free(from, from + dur), ref.min_free(from, from + dur));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    IndexOnOff, ProfileExtend,
    ::testing::Values(std::size_t{1}, ResourceProfile::kIndexDisabled),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      return param_info.param == 1 ? std::string("Indexed")
                                   : std::string("Linear");
    });

#ifdef GTEST_HAS_DEATH_TEST
TEST(ProfileExtendDeath, OverwritingAReservationAborts) {
  ResourceProfile p(0, 10);
  p.extend(Steps{{0, 6}, {10, 8}}, 20);
  p.reserve(15, 25, 2);  // reaches into the placeholder
  EXPECT_DEATH(p.extend(Steps{{20, 3}}, 30), "precondition");
}

TEST(ProfileExtendDeath, UnsortedStepsAbort) {
  ResourceProfile p(0, 10);
  EXPECT_DEATH(p.extend(Steps{{10, 3}, {5, 4}}, 30), "precondition");
}

TEST(ProfileExtendDeath, FreeAboveCapacityAborts) {
  ResourceProfile p(0, 10);
  EXPECT_DEATH(p.extend(Steps{{0, 11}}, 30), "precondition");
}
#endif

}  // namespace
}  // namespace istc::sched
