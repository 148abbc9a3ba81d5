#include "core/adaptive_rtma.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

TEST(AdaptiveRtma, StartsAtTargetWhenInnerBudgetUnset) {
  AdaptiveRtmaConfig config;
  config.target_energy_mj = 900.0;
  const AdaptiveRtmaScheduler scheduler(config);
  EXPECT_DOUBLE_EQ(scheduler.current_budget_mj(), 900.0);
}

TEST(AdaptiveRtma, HonorsExplicitInitialBudget) {
  AdaptiveRtmaConfig config;
  config.target_energy_mj = 900.0;
  config.rtma.energy_budget_mj = 1200.0;
  const AdaptiveRtmaScheduler scheduler(config);
  EXPECT_DOUBLE_EQ(scheduler.current_budget_mj(), 1200.0);
}

TEST(AdaptiveRtma, BudgetGrowsWhenMeasuredBelowTarget) {
  AdaptiveRtmaConfig config;
  config.target_energy_mj = 2000.0;  // far above what strong signals cost
  config.window_slots = 5;
  config.max_step = 1.5;
  AdaptiveRtmaScheduler scheduler(config);
  scheduler.reset(2);
  const double initial = scheduler.current_budget_mj();
  // Strong-signal users: serving them costs well under the target.
  const SlotContext ctx =
      make_context({TestUser{-55.0, 400.0}, TestUser{-55.0, 400.0}});
  for (int slot = 0; slot < 5; ++slot) (void)decide(scheduler, ctx);
  EXPECT_GT(scheduler.current_budget_mj(), initial);
  EXPECT_GT(scheduler.last_window_energy_mj(), 0.0);
}

TEST(AdaptiveRtma, StepIsBoundedPerWindow) {
  AdaptiveRtmaConfig config;
  config.target_energy_mj = 100000.0;  // absurd target
  config.window_slots = 3;
  config.max_step = 1.5;
  config.max_budget_mj = 1e9;
  AdaptiveRtmaScheduler scheduler(config);
  scheduler.reset(1);
  const double initial = scheduler.current_budget_mj();
  const SlotContext ctx = make_context({TestUser{-60.0, 400.0}});
  for (int slot = 0; slot < 3; ++slot) (void)decide(scheduler, ctx);
  EXPECT_LE(scheduler.current_budget_mj(), initial * 1.5 + 1e-9);
}

TEST(AdaptiveRtma, RecoversFromServeNobodyDeadlock) {
  // Start with a budget so strict nobody qualifies; the controller must step
  // the budget up even though no serving-slot measurement exists.
  AdaptiveRtmaConfig config;
  config.target_energy_mj = 1000.0;
  config.rtma.energy_budget_mj = 120.0;  // below the Eq. 12 feasible band
  config.window_slots = 4;
  AdaptiveRtmaScheduler scheduler(config);
  scheduler.reset(1);
  const SlotContext ctx = make_context({TestUser{-80.0, 400.0}});
  Allocation last = Allocation::zeros(1);
  for (int slot = 0; slot < 80; ++slot) last = decide(scheduler, ctx);
  EXPECT_GT(scheduler.current_budget_mj(), 120.0);
  EXPECT_GT(last.total_units(), 0);  // service resumed
}

TEST(AdaptiveRtma, TracksTargetInFullSimulation) {
  ScenarioConfig scenario = paper_scenario(10, 3);
  scenario.video_min_mb = 30.0;
  scenario.video_max_mb = 60.0;
  scenario.max_slots = 3000;
  SchedulerOptions options;
  options.rtma_adaptive.target_energy_mj = 1000.0;
  options.rtma_adaptive.window_slots = 50;
  const RunMetrics metrics =
      simulate(scenario, make_scheduler("rtma-adaptive", options), false);
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 1.0);
  // Serving-slot transmission energy should sit near the target.
  double sum = 0.0;
  std::size_t counted = 0;
  for (const auto& user : metrics.per_user) {
    if (user.tx_slots == 0) continue;
    sum += user.trans_mj / as_double(user.tx_slots);
    ++counted;
  }
  ASSERT_GT(counted, 0u);
  const double measured = sum / as_double(counted);
  EXPECT_GT(measured, 400.0);
  EXPECT_LT(measured, 1800.0);
}

TEST(AdaptiveRtma, RejectsInvalidConfig) {
  AdaptiveRtmaConfig config;
  config.target_energy_mj = 0.0;
  EXPECT_THROW(AdaptiveRtmaScheduler{config}, Error);
  config = AdaptiveRtmaConfig{};
  config.window_slots = 0;
  EXPECT_THROW(AdaptiveRtmaScheduler{config}, Error);
  config = AdaptiveRtmaConfig{};
  config.max_step = 1.0;
  EXPECT_THROW(AdaptiveRtmaScheduler{config}, Error);
  config = AdaptiveRtmaConfig{};
  config.min_budget_mj = 10.0;
  config.max_budget_mj = 5.0;
  EXPECT_THROW(AdaptiveRtmaScheduler{config}, Error);
}

// Each +inf passed the range checks and ran to completion; a NaN target
// surfaced only as the inner RTMA's unnamed budget error.
TEST(AdaptiveRtma, RejectsNonFiniteFieldsByName) {
  const std::pair<double AdaptiveRtmaConfig::*, const char*> fields[] = {
      {&AdaptiveRtmaConfig::target_energy_mj, "adaptive RTMA target energy must be finite"},
      {&AdaptiveRtmaConfig::max_step, "adaptive RTMA max step must be finite"},
      {&AdaptiveRtmaConfig::min_budget_mj, "adaptive RTMA minimum budget must be finite"},
      {&AdaptiveRtmaConfig::max_budget_mj, "adaptive RTMA maximum budget must be finite"}};
  for (const auto& [field, message] : fields) {
    for (const double bad : testing::kNonFinite) {
      SchedulerOptions options;
      options.rtma_adaptive.*field = bad;
      const std::string error =
          testing::error_message([&] { (void)make_scheduler("rtma-adaptive", options); });
      EXPECT_NE(error.find(message), std::string::npos)
          << "value " << bad << ": expected \"" << message << "\", got \"" << error << "\"";
    }
  }
}

}  // namespace
}  // namespace jstream
