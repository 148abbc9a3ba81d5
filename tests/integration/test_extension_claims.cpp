// Integration tests for the extension subsystems: the qualitative
// relationships each extension is built to demonstrate, verified end to end
// at reduced scale.
#include <gtest/gtest.h>

#include "baselines/factory.hpp"
#include "sim/catalog.hpp"
#include "sim/multicell.hpp"
#include "sim/oracle.hpp"
#include "sim/replication.hpp"
#include "sim/simulator.hpp"

namespace jstream {
namespace {

ScenarioConfig reduced(std::size_t users = 12, std::uint64_t seed = 42) {
  ScenarioConfig config = paper_scenario(users, seed);
  config.video_min_mb = 40.0;
  config.video_max_mb = 80.0;
  config.max_slots = 3000;
  return config;
}

TEST(ExtensionClaims, OracleUndercutsLowStallSchedulers) {
  // The oracle is the cheapest ZERO-STALL schedule: it must undercut every
  // policy that also keeps playback (nearly) smooth. Policies that stall
  // heavily (e.g. EMA at large V) can defer bytes past the oracle's deadlines
  // into cheaper slots, so they are excluded from this comparison.
  const ScenarioConfig scenario = reduced();
  const OracleResult oracle = offline_energy_bound(scenario);
  for (const char* name : {"default", "throttling", "onoff", "estreamer", "rtma"}) {
    const RunMetrics online = simulate(scenario, make_scheduler(name), false);
    EXPECT_LE(oracle.total_trans_mj, online.total_trans_mj() + 1e-6) << name;
  }
}

TEST(ExtensionClaims, EmaByteBillShrinksTowardAndPastTheOracleAsVGrows) {
  // Growing V buys cheaper bytes; once EMA starts stalling it may even pass
  // below the zero-stall oracle (spending playback delay the oracle is not
  // allowed to spend). The gap must shrink monotonically in V.
  const ScenarioConfig scenario = reduced();
  const OracleResult oracle = offline_energy_bound(scenario);
  SchedulerOptions small_v;
  small_v.ema.v_weight = 0.01;
  SchedulerOptions large_v;
  large_v.ema.v_weight = 2.0;
  const double gap_small =
      simulate(scenario, make_scheduler("ema-fast", small_v), false).total_trans_mj() -
      oracle.total_trans_mj;
  const double gap_large =
      simulate(scenario, make_scheduler("ema-fast", large_v), false).total_trans_mj() -
      oracle.total_trans_mj;
  EXPECT_LT(gap_large, gap_small);
}

TEST(ExtensionClaims, ChurnPreservesTheFrameworkAdvantages) {
  const ScenarioConfig scenario = make_catalog_scenario("churn", 20, 42);
  ScenarioConfig small = scenario;
  small.video_min_mb = 40.0;
  small.video_max_mb = 80.0;
  small.max_slots = 3000;
  small.arrival_spread_slots = 300;
  const DefaultReference reference = run_default_reference(small);
  const RunMetrics default_run = simulate(small, make_scheduler("default"), false);
  const RunMetrics rtma_run = simulate(
      small, make_scheduler("rtma", rtma_options_for_alpha(1.0, reference)), false);
  // Churn lightens the instantaneous load, so both may sit at the cold-start
  // floor; the claim is "no regression" on either axis.
  EXPECT_LE(rtma_run.avg_rebuffer_per_user_slot_s(),
            default_run.avg_rebuffer_per_user_slot_s() + 1e-9);
  EXPECT_LE(rtma_run.avg_energy_per_user_slot_mj(),
            default_run.avg_energy_per_user_slot_mj() * 1.05);
}

TEST(ExtensionClaims, MultiCellScalesTheDeploymentLinearly) {
  ScenarioConfig cell = reduced(6);
  const MultiCellResult one = simulate_multicell(MultiCellConfig::uniform(cell, 1),
                                                 "throttling");
  const MultiCellResult four = simulate_multicell(MultiCellConfig::uniform(cell, 4),
                                                  "throttling");
  EXPECT_EQ(four.total_users(), 4 * one.total_users());
  // Independent cells: total energy grows roughly with the cell count
  // (different seeds per cell, so not exactly).
  EXPECT_GT(four.total_energy_mj(), 2.0 * one.total_energy_mj());
}

TEST(ExtensionClaims, AdaptiveRtmaMatchesStaticWhenAnchored) {
  const ScenarioConfig scenario = reduced();
  const DefaultReference reference = run_default_reference(scenario);
  const RunMetrics fixed = simulate(
      scenario, make_scheduler("rtma", rtma_options_for_alpha(1.0, reference)), false);
  SchedulerOptions adaptive;
  adaptive.rtma_adaptive.target_energy_mj = reference.trans_per_tx_slot_mj;
  const RunMetrics tracked =
      simulate(scenario, make_scheduler("rtma-adaptive", adaptive), false);
  // On the stationary scenario the controller converges to the static
  // behaviour: totals agree within a few percent.
  EXPECT_NEAR(tracked.total_energy_mj(), fixed.total_energy_mj(),
              0.10 * fixed.total_energy_mj());
}

TEST(ExtensionClaims, ReplicationConfirmsTheHeadlineAcrossSeeds) {
  ScenarioConfig scenario = reduced(15);
  const DefaultReference reference = run_default_reference(scenario);
  const ReplicationResult default_runs =
      replicate_experiment({"default", "default", scenario, {}}, 3);
  const ReplicationResult rtma_runs = replicate_experiment(
      {"rtma", "rtma", scenario, rtma_options_for_alpha(1.0, reference)}, 3);
  // RTMA's mean rebuffering is lower with separation beyond one CI width.
  EXPECT_LT(rtma_runs.pc_s.summary.mean + rtma_runs.pc_s.ci95_halfwidth(),
            default_runs.pc_s.summary.mean + default_runs.pc_s.ci95_halfwidth());
}

}  // namespace
}  // namespace jstream
