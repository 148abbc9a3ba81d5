#include "core/rtma.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

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

// +inf tail power ran to completion sending nothing; an infinite range end
// failed only at the first Eq. 24 fit, naming no field.
TEST(Rtma, RejectsNonFiniteFieldsByName) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [](const RtmaConfig& config, const std::string& message) {
    const std::string error = testing::error_message([&] { (void)RtmaScheduler{config}; });
    EXPECT_NE(error.find(message), std::string::npos)
        << "expected \"" << message << "\", got \"" << error << "\"";
  };
  for (const double bad : {kInf, -kInf}) {
    RtmaConfig config;
    config.tail_power_mw = bad;
    expect_rejected(config, "RTMA tail power must be finite");
  }
  for (const double bad : {kInf, -kInf, kNaN}) {
    RtmaConfig min_end;
    min_end.min_dbm = bad;
    expect_rejected(min_end, "RTMA signal range minimum must be finite");
    RtmaConfig max_end;
    max_end.max_dbm = bad;
    expect_rejected(max_end, "RTMA signal range maximum must be finite");
  }
  // The documented sentinels stay accepted: NaN tail power (the radio's tail
  // average) and an infinite budget (no budget).
  RtmaConfig sentinels;
  sentinels.tail_power_mw = kNaN;
  sentinels.energy_budget_mj = kInf;
  EXPECT_NO_THROW(RtmaScheduler{sentinels});
}

TEST(Rtma, NameAndConfigAccessors) {
  RtmaScheduler rtma;
  EXPECT_EQ(rtma.name(), "rtma");
  EXPECT_TRUE(std::isinf(rtma.config().energy_budget_mj));
}

}  // namespace
}  // namespace jstream
