#include "core/lookahead.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/forecast.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

/// One user whose forecast says the channel improves sharply next slot.
std::vector<std::vector<double>> improving_forecast(std::size_t slots = 50) {
  std::vector<double> trace(slots, -55.0);
  trace[0] = -105.0;  // now: expensive
  return {trace};
}

/// One user whose forecast says now is as good as it gets.
std::vector<std::vector<double>> flat_forecast(double dbm = -70.0,
                                               std::size_t slots = 50) {
  return {std::vector<double>(slots, dbm)};
}

TEST(Lookahead, DefersWhenBetterSlotIsPredicted) {
  LookaheadScheduler scheduler(LookaheadConfig{}, improving_forecast());
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-105.0, 400.0}};
  users[0].buffer_s = 20.0;  // healthy, no safety pressure
  const SlotContext ctx = make_context(users);
  EXPECT_EQ(decide(scheduler, ctx).total_units(), 0);
}

TEST(Lookahead, PrefetchesAtTheLocalPriceMinimum) {
  LookaheadScheduler scheduler(LookaheadConfig{}, flat_forecast());
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-70.0, 400.0}};
  users[0].buffer_s = 20.0;  // below the prefetch target of 60 s
  const SlotContext ctx = make_context(users);
  EXPECT_GT(decide(scheduler, ctx).total_units(), 0);
}

TEST(Lookahead, SafetyOverridesPrice) {
  LookaheadScheduler scheduler(LookaheadConfig{}, improving_forecast());
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-105.0, 400.0}};
  users[0].buffer_s = 1.0;  // below the safety level: transmit regardless
  const SlotContext ctx = make_context(users);
  EXPECT_GT(decide(scheduler, ctx).total_units(), 0);
}

TEST(Lookahead, UrgentUsersWinTheCapacity) {
  std::vector<std::vector<double>> forecast{std::vector<double>(50, -70.0),
                                            std::vector<double>(50, -70.0)};
  LookaheadScheduler scheduler(LookaheadConfig{}, std::move(forecast));
  scheduler.reset(2);
  std::vector<TestUser> users{TestUser{-70.0, 400.0}, TestUser{-70.0, 400.0}};
  users[0].buffer_s = 50.0;  // comfortable
  users[1].buffer_s = 0.5;   // starving
  // Capacity for roughly one user's catch-up only.
  const SlotContext ctx = make_context(users, /*capacity_kbps=*/600.0);
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_GT(alloc.units[1], 0);
  EXPECT_EQ(alloc.units[0], 0);
}

TEST(Lookahead, RespectsConstraints) {
  std::vector<std::vector<double>> forecast{std::vector<double>(50, -60.0),
                                            std::vector<double>(50, -90.0)};
  LookaheadScheduler scheduler(LookaheadConfig{}, std::move(forecast));
  scheduler.reset(2);
  const SlotContext ctx =
      make_context({TestUser{-60.0, 500.0}, TestUser{-90.0, 500.0}}, 3000.0);
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_LE(alloc.total_units(), ctx.capacity_units);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LE(alloc.units[i], ctx.users[i].alloc_cap_units);
  }
}

TEST(Lookahead, ForecastMatchesSimulatedSignals) {
  ScenarioConfig config = paper_scenario(3, 13);
  const auto forecast = make_signal_forecast(config, 100);
  auto endpoints = build_endpoints(config);
  ASSERT_EQ(forecast.size(), 3u);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    for (std::int64_t slot = 0; slot < 100; ++slot) {
      ASSERT_DOUBLE_EQ(forecast[i][checked_size(slot)],
                       endpoints[i].signal->signal_dbm(slot));
    }
  }
}

TEST(Lookahead, RejectsBadConfigAndMismatchedPopulation) {
  LookaheadConfig bad;
  bad.horizon_slots = 0;
  EXPECT_THROW(LookaheadScheduler(bad, flat_forecast()), Error);
  bad = LookaheadConfig{};
  bad.prefetch_buffer_s = 1.0;  // below safety
  EXPECT_THROW(LookaheadScheduler(bad, flat_forecast()), Error);
  EXPECT_THROW(LookaheadScheduler(LookaheadConfig{}, {}), Error);
  LookaheadScheduler scheduler(LookaheadConfig{}, flat_forecast());
  EXPECT_THROW(scheduler.reset(4), Error);
}

}  // namespace
}  // namespace jstream
