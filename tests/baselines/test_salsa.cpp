#include "baselines/salsa.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

TEST(Salsa, TransmitsOnFirstSlot) {
  // The EWMA seeds from the first observation, so the channel looks average
  // and the empty buffer forces a panic transmission.
  SalsaScheduler scheduler;
  scheduler.reset(1);
  const SlotContext ctx = make_context({TestUser{-80.0, 400.0}});
  EXPECT_GT(decide(scheduler, ctx).units[0], 0);
}

TEST(Salsa, DefersOnExpensiveChannelWithHealthyBuffer) {
  SalsaScheduler scheduler;
  scheduler.reset(1);
  // Train the EWMA on a good channel first.
  std::vector<TestUser> users{TestUser{-60.0, 400.0}};
  users[0].buffer_s = 10.0;
  for (std::int64_t slot = 0; slot < 50; ++slot) {
    (void)decide(scheduler, make_context(users, 20000.0, SlotParams{}, slot));
    users[0].buffer_s = 10.0;
  }
  // Now the channel collapses but the buffer is healthy: defer.
  users[0].signal_dbm = -110.0;
  EXPECT_EQ(decide(scheduler, make_context(users)).units[0], 0);
}

TEST(Salsa, PanicsWhenBufferNearlyEmpty) {
  SalsaScheduler scheduler;
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-60.0, 400.0}};
  users[0].buffer_s = 10.0;
  for (std::int64_t slot = 0; slot < 50; ++slot) {
    (void)decide(scheduler, make_context(users, 20000.0, SlotParams{}, slot));
    users[0].buffer_s = 10.0;
  }
  users[0].signal_dbm = -110.0;
  users[0].buffer_s = 1.0;  // below the panic threshold
  EXPECT_GT(decide(scheduler, make_context(users)).units[0], 0);
}

TEST(Salsa, PricesTheSnapshotsCachedFit) {
  // SALSA reads the per-KB cost the collector cached for the slot, not a
  // fresh model evaluation: a snapshot whose cached cost jumped defers even
  // though the signal did not move.
  SalsaScheduler scheduler;
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-60.0, 400.0}};
  users[0].buffer_s = 10.0;
  for (std::int64_t slot = 0; slot < 50; ++slot) {
    (void)decide(scheduler, make_context(users, 20000.0, SlotParams{}, slot));
  }
  SlotContext ctx = make_context(users);
  EXPECT_GT(decide(scheduler, ctx).units[0], 0);  // same cost: transmits
  ctx.users[0].energy_per_kb *= 4.0;
  ctx.finalize();
  EXPECT_EQ(decide(scheduler, ctx).units[0], 0);
}

TEST(Salsa, FillsTowardTargetBuffer) {
  SalsaScheduler::Params params;
  params.target_buffer_s = 15.0;
  SalsaScheduler scheduler(params);
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-60.0, 400.0}};
  users[0].buffer_s = 13.0;
  const Allocation alloc = decide(scheduler, make_context(users));
  // Deficit of 2 s at 400 KB/s = 800 KB = 8 units.
  EXPECT_EQ(alloc.units[0], 8);
}

TEST(Salsa, RespectsCapacity) {
  SalsaScheduler scheduler;
  scheduler.reset(10);
  const std::vector<TestUser> users(10, TestUser{-70.0, 500.0});
  const SlotContext ctx = make_context(users, /*capacity_kbps=*/2000.0);
  EXPECT_LE(decide(scheduler, ctx).total_units(), ctx.capacity_units);
}

TEST(Salsa, RejectsBadParamsAndMissingReset) {
  SalsaScheduler::Params bad;
  bad.cost_ratio = 0.0;
  EXPECT_THROW(SalsaScheduler{bad}, Error);
  bad = SalsaScheduler::Params{};
  bad.target_buffer_s = 1.0;  // below panic threshold
  EXPECT_THROW(SalsaScheduler{bad}, Error);
  SalsaScheduler scheduler;
  const SlotContext ctx = make_context({TestUser{}});
  EXPECT_THROW((void)decide(scheduler, ctx), Error);
}

}  // namespace
}  // namespace jstream
