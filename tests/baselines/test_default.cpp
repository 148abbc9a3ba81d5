#include "baselines/default_scheduler.hpp"

#include <gtest/gtest.h>

#include <set>

#include "baselines/rotation.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

TEST(DefaultScheduler, GrabsFullLinkRateUpToCapacity) {
  DefaultScheduler scheduler;
  scheduler.reset(2);
  // Plenty of capacity: everyone gets the full link cap.
  const SlotContext ctx =
      make_context({TestUser{-80.0, 400.0}, TestUser{-110.0, 400.0}});
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_EQ(alloc.units[0], ctx.users[0].alloc_cap_units);
  EXPECT_EQ(alloc.units[1], ctx.users[1].alloc_cap_units);
}

TEST(DefaultScheduler, CapacityBindsAndStarvesTheTail) {
  DefaultScheduler scheduler;
  scheduler.reset(4);
  // Capacity of 23 units = exactly one strong user's link cap.
  std::vector<TestUser> users(4, TestUser{-80.0, 400.0});
  const SlotContext ctx = make_context(users, /*capacity_kbps=*/2300.0);
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_EQ(alloc.total_units(), ctx.capacity_units);
  // Exactly one user (whoever heads this slot's rotation) gets everything.
  int winners = 0;
  for (std::int64_t units : alloc.units) {
    if (units == 23) ++winners;
  }
  EXPECT_EQ(winners, 1);
}

TEST(DefaultScheduler, ServingOrderRotatesAcrossSlots) {
  DefaultScheduler scheduler;
  scheduler.reset(4);
  std::vector<TestUser> users(4, TestUser{-80.0, 400.0});
  std::set<std::size_t> winners;
  for (std::int64_t slot = 0; slot < 64; ++slot) {
    const SlotContext ctx = make_context(users, 2300.0, SlotParams{}, slot);
    const Allocation alloc = decide(scheduler, ctx);
    for (std::size_t i = 0; i < 4; ++i) {
      if (alloc.units[i] > 0) winners.insert(i);
    }
  }
  // Over many slots every user gets a turn (no permanent starvation).
  EXPECT_EQ(winners.size(), 4u);
}

TEST(DefaultScheduler, RotationIsDeterministic) {
  EXPECT_EQ(rotation_start(17, 40), rotation_start(17, 40));
  // Different slots generally rotate to different heads.
  std::set<std::size_t> starts;
  for (std::int64_t slot = 0; slot < 40; ++slot) starts.insert(rotation_start(slot, 40));
  EXPECT_GT(starts.size(), 10u);
}

TEST(DefaultScheduler, SkipsFinishedUsers) {
  DefaultScheduler scheduler;
  scheduler.reset(2);
  std::vector<TestUser> users{TestUser{-80.0, 400.0}, TestUser{-80.0, 400.0}};
  users[0].remaining_kb = 0.0;
  const SlotContext ctx = make_context(users);
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_EQ(alloc.units[0], 0);
  EXPECT_GT(alloc.units[1], 0);
}

}  // namespace
}  // namespace jstream
