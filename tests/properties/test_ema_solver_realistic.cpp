// EMA solver comparison on realistic slot problems: instead of adversarial
// random costs (tests/core/test_ema_fast.cpp), draw the costs exactly as a
// simulation would — from the paper link model, random signals/queues/idle
// times — and require the greedy to match the DP's objective within a tight
// relative margin there.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/ema.hpp"
#include "core/ema_fast.hpp"
#include "test_helpers.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::make_context;

double total_cost(const EmaSlotCosts& costs, const Allocation& alloc) {
  double total = 0.0;
  for (std::size_t i = 0; i < alloc.units.size(); ++i) {
    total += ema_cost(costs, i, alloc.units[i]);
  }
  return total;
}

class EmaSolverRealistic : public ::testing::TestWithParam<double> {};

TEST_P(EmaSolverRealistic, GreedyTracksDpOnSimulationShapedCosts) {
  const double v_weight = GetParam();
  Rng rng(2077);
  double total_dp = 0.0;
  double total_greedy = 0.0;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 10 + checked_size(rng.uniform_int(0, 30));
    std::vector<TestUser> users;
    LyapunovQueues queues(n);
    for (std::size_t i = 0; i < n; ++i) {
      TestUser user;
      user.signal_dbm = rng.uniform(-110.0, -50.0);
      user.bitrate_kbps = rng.uniform(300.0, 600.0);
      user.rrc_promoted = rng.uniform() < 0.9;
      user.rrc_idle_s = rng.uniform(0.0, 10.0);
      users.push_back(user);
      // Realistic queue range: a few seconds of surplus or pressure. Drive
      // the queue to PC = pc through valid Eq. 16 updates (t >= 0).
      double pc = rng.uniform(-10.0, 5.0);
      while (pc > 1.0) {
        queues.update(i, 1.0, 0.0);  // PC += 1
        pc -= 1.0;
      }
      queues.update(i, 1.0, 1.0 - pc);  // PC += pc (t = 1 - pc >= 0)
    }
    const SlotContext ctx = make_context(users, 20000.0);
    const EmaSlotCosts costs = compute_ema_slot_costs(ctx, queues, v_weight);
    std::vector<std::int64_t> caps;
    for (const auto& user : ctx.users) caps.push_back(user.alloc_cap_units);

    const double dp =
        total_cost(costs, solve_min_cost_dp(costs, caps, ctx.capacity_units));
    const double greedy =
        total_cost(costs, solve_min_cost_greedy(costs, caps, ctx.capacity_units));
    ASSERT_GE(greedy, dp - 1e-9);
    total_dp += dp;
    total_greedy += greedy;
  }
  // Aggregate objective gap on simulation-shaped instances stays under 2%.
  const double scale = std::max(std::abs(total_dp), 1.0);
  EXPECT_LT((total_greedy - total_dp) / scale, 0.02)
      << "V = " << v_weight << ": dp " << total_dp << " greedy " << total_greedy;
}

INSTANTIATE_TEST_SUITE_P(VSweep, EmaSolverRealistic,
                         ::testing::Values(0.005, 0.05, 0.5),
                         [](const auto& suite_info) {
                           std::string name = "V";
                           name += std::to_string(suite_info.param);
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace jstream
