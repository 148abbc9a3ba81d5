// Theorem 1 (qualitative): under EMA, the Lyapunov weight V trades average
// energy PE against average rebuffering PC — PE falls toward a floor as V
// grows (PE <= E* + B/V) while PC grows with V (PC <= (B + V E*)/eps). Also
// checks queue stability: the virtual queues stay bounded over a session.
#include <gtest/gtest.h>

#include "baselines/factory.hpp"
#include "core/ema.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

ScenarioConfig theorem_scenario() {
  ScenarioConfig config = paper_scenario(8, 55);
  config.video_min_mb = 20.0;
  config.video_max_mb = 40.0;
  config.max_slots = 3000;
  return config;
}

RunMetrics run_with_v(double v) {
  SchedulerOptions options;
  options.ema.v_weight = v;
  return simulate(theorem_scenario(), make_scheduler("ema-fast", options),
                  /*keep_series=*/false);
}

TEST(Theorem1, EnergyDecreasesAcrossTheVSweep) {
  const RunMetrics low = run_with_v(0.002);
  const RunMetrics high = run_with_v(0.5);
  EXPECT_LT(high.avg_energy_per_user_slot_mj(), low.avg_energy_per_user_slot_mj());
}

TEST(Theorem1, RebufferingGrowsAcrossTheVSweep) {
  const RunMetrics low = run_with_v(0.002);
  const RunMetrics high = run_with_v(0.5);
  EXPECT_GT(high.avg_rebuffer_per_user_slot_s(),
            low.avg_rebuffer_per_user_slot_s());
}

TEST(Theorem1, TradeoffIsRoughlyMonotoneAcrossIntermediateV) {
  // Allow small non-monotonic wiggles from the finite horizon; the endpoints
  // of each adjacent pair must not invert by more than 10%.
  double prev_pe = run_with_v(0.005).avg_energy_per_user_slot_mj();
  for (double v : {0.02, 0.08, 0.3}) {
    const double pe = run_with_v(v).avg_energy_per_user_slot_mj();
    EXPECT_LT(pe, prev_pe * 1.10) << "V = " << v;
    prev_pe = pe;
  }
}

TEST(Theorem1, VirtualQueuesStayBoundedOverASession) {
  // Drive EMA directly and track its queues: with content available and a
  // feasible system, |PC_i| must not diverge (queue stability, Eq. 25-26).
  EmaScheduler ema(EmaConfig{0.05});
  const std::size_t n = 4;
  ema.reset(n);
  Rng rng(77);
  double worst = 0.0;
  for (std::int64_t slot = 0; slot < 2000; ++slot) {
    std::vector<testing::TestUser> users;
    for (std::size_t i = 0; i < n; ++i) {
      testing::TestUser user;
      user.signal_dbm = rng.uniform(-110.0, -50.0);
      user.bitrate_kbps = 400.0;
      user.rrc_promoted = slot > 0;
      users.push_back(user);
    }
    (void)testing::decide(ema, testing::make_context(users, 20000.0, SlotParams{}, slot));
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, std::abs(ema.queues().value(i)));
    }
  }
  // Queues oscillate within a V- and channel-dependent band; divergence would
  // reach hundreds of seconds over 2000 slots.
  EXPECT_LT(worst, 100.0);
}

}  // namespace
}  // namespace jstream
