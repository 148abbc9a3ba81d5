#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/fault.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

ScenarioConfig small_scenario(std::size_t users = 4, std::uint64_t seed = 3) {
  ScenarioConfig config = paper_scenario(users, seed);
  // Small videos keep tests fast while exercising full sessions.
  config.video_min_mb = 5.0;
  config.video_max_mb = 10.0;
  config.max_slots = 2000;
  return config;
}

TEST(Simulator, CompletesAllSessionsWithEarlyStop) {
  const RunMetrics metrics = simulate(small_scenario(), make_scheduler("default"));
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 1.0);
  EXPECT_LT(metrics.slots_run, 2000);
  for (const auto& user : metrics.per_user) {
    EXPECT_GT(user.delivered_kb, 0.0);
    EXPECT_GT(user.session_slots, 0);
  }
}

TEST(Simulator, DeliversExactlyTheContent) {
  const ScenarioConfig config = small_scenario();
  const RunMetrics metrics = simulate(config, make_scheduler("default"));
  const auto endpoints = build_endpoints(config);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    EXPECT_NEAR(metrics.per_user[i].delivered_kb, endpoints[i].session.size_kb(), 1e-6);
  }
}

TEST(Simulator, SessionSlotsAtLeastPlaybackDuration) {
  const ScenarioConfig config = small_scenario();
  const RunMetrics metrics = simulate(config, make_scheduler("default"));
  const auto endpoints = build_endpoints(config);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    EXPECT_GE(as_double(metrics.per_user[i].session_slots) + 1.0,
              endpoints[i].session.total_playback_s());
  }
}

TEST(Simulator, HorizonCapRespectedWithoutEarlyStop) {
  ScenarioConfig config = small_scenario();
  config.early_stop = false;
  config.max_slots = 120;
  const RunMetrics metrics = simulate(config, make_scheduler("default"));
  EXPECT_EQ(metrics.slots_run, 120);
}

TEST(Simulator, EveryFactorySchedulerRunsCleanly) {
  for (const std::string& name : scheduler_names()) {
    const RunMetrics metrics = simulate(small_scenario(3), make_scheduler(name));
    EXPECT_GT(metrics.slots_run, 0) << name;
    EXPECT_GT(metrics.total_energy_mj(), 0.0) << name;
    EXPECT_DOUBLE_EQ(metrics.completion_rate(), 1.0) << name;
  }
}

TEST(Simulator, FiniteBackhaulSlowsDelivery) {
  ScenarioConfig unconstrained = small_scenario();
  ScenarioConfig constrained = small_scenario();
  constrained.backhaul_kbps = 500.0;  // far below the radio capacity
  const RunMetrics fast = simulate(unconstrained, make_scheduler("default"));
  const RunMetrics slow = simulate(constrained, make_scheduler("default"));
  EXPECT_GT(slow.total_rebuffer_s(), fast.total_rebuffer_s());
}

TEST(Simulator, RejectsInvalidConstruction) {
  EXPECT_THROW(Simulator(small_scenario(), nullptr), Error);
  ScenarioConfig bad = small_scenario();
  bad.users = 0;
  EXPECT_THROW(Simulator(bad, make_scheduler("default")), Error);
}

ScenarioConfig faulted_scenario() {
  ScenarioConfig config = small_scenario(/*users=*/4, /*seed=*/5);
  config.max_slots = 400;
  config.faults.outage_rate_per_kslot = 10.0;
  config.faults.staleness_rate_per_kslot = 15.0;
  config.faults.departure_fraction = 0.3;
  config.faults.capacity_rate_per_kslot = 5.0;
  return config;
}

std::shared_ptr<const FaultSchedule> schedule_for(const ScenarioConfig& config) {
  return std::make_shared<const FaultSchedule>(make_fault_schedule(config));
}

TEST(Simulator, SharedFaultScheduleRunsBitIdenticalToItsOwnDraw) {
  const ScenarioConfig config = faulted_scenario();
  Simulator own(config, make_scheduler("rtma"));
  Simulator shared(config, make_scheduler("rtma"), SchedulingMode::kBaseline, nullptr,
                   schedule_for(config));
  EXPECT_EQ(metrics_digest(shared.run()), metrics_digest(own.run()));
}

TEST(Simulator, RejectsAFaultScheduleDrawnForAnotherScenario) {
  const ScenarioConfig config = faulted_scenario();
  const auto rejection = [&](std::shared_ptr<const FaultSchedule> schedule) {
    return testing::error_message([&] {
      const Simulator simulator(config, make_scheduler("default"),
                                SchedulingMode::kBaseline, nullptr, std::move(schedule));
    });
  };
  const auto expect_rejected = [&](const ScenarioConfig& drawn_for,
                                   const std::string& message) {
    const std::string error = rejection(schedule_for(drawn_for));
    EXPECT_NE(error.find(message), std::string::npos)
        << "expected \"" << message << "\", got \"" << error << "\"";
  };
  EXPECT_EQ(rejection(schedule_for(config)), "");

  ScenarioConfig other = config;
  other.seed += 1;
  expect_rejected(other, "fault schedule was drawn for another seed");

  other = config;
  other.users += 1;
  expect_rejected(other, "fault schedule population mismatch");

  other = config;
  other.max_slots += 1;
  expect_rejected(other, "fault schedule horizon mismatch");

  other = config;
  other.faults.outage_rate_per_kslot += 1.0;
  expect_rejected(other, "fault schedule was drawn for another fault config");

  other = config;
  other.faults.salt = 9;
  expect_rejected(other, "fault schedule was drawn for another fault config");

  // A hand-built schedule records no seed or fault config, so it is rejected
  // too (this scenario's seed is not 0, so the seed check names it).
  auto hand_built = std::make_shared<FaultSchedule>(config.users, config.max_slots,
                                                    config.faults.outage_dbm);
  hand_built->add_outage(0, {3, 9});
  EXPECT_NE(rejection(hand_built).find("fault schedule was drawn for another seed"),
            std::string::npos);
}

}  // namespace
}  // namespace jstream
