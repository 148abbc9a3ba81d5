#include "core/rtma.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/energy_threshold.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

TEST(Rtma, SatisfiesBothConstraints) {
  RtmaScheduler rtma;
  rtma.reset(3);
  const SlotContext ctx = make_context({TestUser{-60.0, 300.0}, TestUser{-80.0, 450.0},
                                        TestUser{-100.0, 600.0}});
  const Allocation alloc = decide(rtma, ctx);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(alloc.units[i], 0);
    EXPECT_LE(alloc.units[i], ctx.users[i].alloc_cap_units);
  }
  EXPECT_LE(alloc.total_units(), ctx.capacity_units);
}

TEST(Rtma, CoversEveryUsersNeedWhenCapacityAllows) {
  RtmaScheduler rtma;
  rtma.reset(3);
  const SlotContext ctx = make_context({TestUser{-60.0, 300.0}, TestUser{-70.0, 450.0},
                                        TestUser{-80.0, 600.0}});
  const Allocation alloc = decide(rtma, ctx);
  // need = ceil(tau * p / delta): 3, 5, 6 units.
  EXPECT_GE(alloc.units[0], 3);
  EXPECT_GE(alloc.units[1], 5);
  EXPECT_GE(alloc.units[2], 6);
}

TEST(Rtma, ExhaustsCapacityViaMultiplePasses) {
  RtmaScheduler rtma;
  rtma.reset(2);
  // Two strong users; BS capacity 20 units binds first.
  const SlotContext ctx = make_context(
      {TestUser{-50.0, 300.0}, TestUser{-50.0, 300.0}}, /*capacity_kbps=*/2000.0);
  const Allocation alloc = decide(rtma, ctx);
  EXPECT_EQ(alloc.total_units(), ctx.capacity_units);
}

TEST(Rtma, LowBitrateUsersServedFirstUnderScarcity) {
  RtmaScheduler rtma;
  rtma.reset(2);
  // Capacity of 3 units: exactly the low-rate user's need.
  const SlotContext ctx = make_context(
      {TestUser{-80.0, 600.0}, TestUser{-80.0, 300.0}}, /*capacity_kbps=*/300.0);
  const Allocation alloc = decide(rtma, ctx);
  EXPECT_EQ(alloc.units[1], 3);  // 300 KB/s user gets its full need
  EXPECT_EQ(alloc.units[0], 0);
}

TEST(Rtma, EnergyBudgetFiltersWeakSignals) {
  RtmaConfig config;
  // Budget equal to the Eq. 12 cost at -85 dBm: users below -85 are skipped.
  // Pin P_tail on both sides so the threshold inversion is exact.
  const LinkModel link = make_paper_link_model();
  EnergyThresholdSpec spec;
  spec.tail_power_mw = 600.0;
  config.tail_power_mw = 600.0;
  config.energy_budget_mj =
      slot_energy_estimate_mj(spec, *link.throughput, *link.power, -85.0);
  RtmaScheduler rtma(config);
  rtma.reset(2);
  const SlotContext ctx =
      make_context({TestUser{-90.0, 400.0}, TestUser{-80.0, 400.0}});
  const Allocation alloc = decide(rtma, ctx);
  EXPECT_EQ(alloc.units[0], 0);  // below threshold
  EXPECT_GT(alloc.units[1], 0);
  EXPECT_NEAR(rtma.last_threshold_dbm(), -85.0, 1e-6);
}

TEST(Rtma, UnbudgetedRunHasNoThreshold) {
  RtmaScheduler rtma;
  rtma.reset(1);
  const SlotContext ctx = make_context({TestUser{-110.0, 400.0}});
  const Allocation alloc = decide(rtma, ctx);
  EXPECT_GT(alloc.units[0], 0);
  EXPECT_TRUE(std::isinf(rtma.last_threshold_dbm()));
}

TEST(Rtma, SkipsUsersWithNothingLeft) {
  RtmaScheduler rtma;
  rtma.reset(2);
  std::vector<TestUser> users{TestUser{-70.0, 400.0}, TestUser{-70.0, 400.0}};
  users[0].remaining_kb = 0.0;
  const SlotContext ctx = make_context(users);
  const Allocation alloc = decide(rtma, ctx);
  EXPECT_EQ(alloc.units[0], 0);
  EXPECT_GT(alloc.units[1], 0);
}

TEST(Rtma, RejectsInvalidConfig) {
  RtmaConfig bad;
  bad.energy_budget_mj = 0.0;
  EXPECT_THROW(RtmaScheduler{bad}, Error);
  RtmaConfig bad_range;
  bad_range.min_dbm = -50.0;
  bad_range.max_dbm = -110.0;
  EXPECT_THROW(RtmaScheduler{bad_range}, Error);
}

TEST(Rtma, NameAndConfigAccessors) {
  RtmaScheduler rtma;
  EXPECT_EQ(rtma.name(), "rtma");
  EXPECT_TRUE(std::isinf(rtma.config().energy_budget_mj));
}

}  // namespace
}  // namespace jstream
