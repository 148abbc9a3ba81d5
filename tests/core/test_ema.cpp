#include "core/ema.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "radio/rrc.hpp"
#include "test_helpers.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

/// Exhaustive minimizer over all feasible allocations (tiny instances only).
double brute_force_min(const EmaSlotCosts& costs, const std::vector<std::int64_t>& caps,
                       std::int64_t capacity, std::vector<std::int64_t>& best) {
  const std::size_t n = caps.size();
  std::vector<std::int64_t> current(n, 0);
  double best_cost = std::numeric_limits<double>::infinity();
  const auto recurse = [&](auto&& self, std::size_t user, std::int64_t used,
                           double cost) -> void {
    if (user == n) {
      if (cost < best_cost) {
        best_cost = cost;
        best = current;
      }
      return;
    }
    for (std::int64_t phi = 0; phi <= caps[user] && used + phi <= capacity; ++phi) {
      current[user] = phi;
      self(self, user + 1, used + phi, cost + ema_cost(costs, user, phi));
    }
    current[user] = 0;
  };
  recurse(recurse, 0, 0, 0.0);
  return best_cost;
}

double total_cost(const EmaSlotCosts& costs, const Allocation& alloc) {
  double total = 0.0;
  for (std::size_t i = 0; i < alloc.units.size(); ++i) {
    total += ema_cost(costs, i, alloc.units[i]);
  }
  return total;
}

EmaSlotCosts random_costs(Rng& rng, std::size_t n) {
  EmaSlotCosts costs;
  for (std::size_t i = 0; i < n; ++i) {
    costs.idle_cost.push_back(rng.uniform(0.0, 40.0));
    costs.active_base.push_back(rng.uniform(0.0, 10.0));
    costs.slope.push_back(rng.uniform(-15.0, 15.0));
  }
  return costs;
}

TEST(EmaCosts, MatchTheReducedObjective) {
  // One promoted user, 2 s into its tail, positive queue.
  std::vector<TestUser> users{TestUser{-80.0, 400.0}};
  users[0].rrc_promoted = true;
  users[0].rrc_idle_s = 2.0;
  const SlotContext ctx = make_context(users);
  LyapunovQueues queues(1);
  queues.update(0, 1.0, 0.0);
  queues.update(0, 1.0, 0.0);  // PC = 2
  const double v_weight = 0.05;
  const EmaSlotCosts costs = compute_ema_slot_costs(ctx, queues, v_weight);

  // Idle: V * (Etail(3) - Etail(2)) = V * Pd (still inside T1).
  EXPECT_NEAR(costs.idle_cost[0], v_weight * 732.83, 1e-9);
  // Eq. 5 accounting: no active base.
  EXPECT_DOUBLE_EQ(costs.active_base[0], 0.0);
  // slope = V*P(sig)*delta - PC*delta/p.
  const double p_mj_per_kb = -0.167 + 1560.0 / 2303.0;
  EXPECT_NEAR(costs.slope[0], v_weight * p_mj_per_kb * 100.0 - 2.0 * 100.0 / 400.0,
              1e-9);
}

TEST(EmaCosts, UnpromotedRadioHasFreeIdle) {
  const SlotContext ctx = make_context({TestUser{-80.0, 400.0}});
  const LyapunovQueues queues(1);
  const EmaSlotCosts costs = compute_ema_slot_costs(ctx, queues, 0.05);
  EXPECT_DOUBLE_EQ(costs.idle_cost[0], 0.0);
}

TEST(EmaDp, MatchesBruteForceOnRandomInstances) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + checked_size(rng.uniform_int(0, 2));
    std::vector<std::int64_t> caps;
    for (std::size_t i = 0; i < n; ++i) caps.push_back(rng.uniform_int(0, 4));
    const std::int64_t capacity = rng.uniform_int(0, 6);
    const EmaSlotCosts costs = random_costs(rng, n);

    std::vector<std::int64_t> best;
    const double expected = brute_force_min(costs, caps, capacity, best);
    const Allocation alloc = solve_min_cost_dp(costs, caps, capacity);
    EXPECT_NEAR(total_cost(costs, alloc), expected, 1e-9)
        << "trial " << trial << " n=" << n << " capacity=" << capacity;
    EXPECT_LE(alloc.total_units(), capacity);
  }
}

TEST(EmaDp, RespectsCapsAndCapacity) {
  Rng rng(7);
  const std::size_t n = 10;
  std::vector<std::int64_t> caps;
  for (std::size_t i = 0; i < n; ++i) caps.push_back(rng.uniform_int(0, 40));
  const EmaSlotCosts costs = random_costs(rng, n);
  const Allocation alloc = solve_min_cost_dp(costs, caps, 60);
  EXPECT_LE(alloc.total_units(), 60);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(alloc.units[i], 0);
    EXPECT_LE(alloc.units[i], caps[i]);
  }
}

TEST(EmaDp, NegativeSlopeUserGetsItsCap) {
  EmaSlotCosts costs;
  costs.idle_cost = {0.0};
  costs.active_base = {0.0};
  costs.slope = {-1.0};
  const std::vector<std::int64_t> caps{5};
  const Allocation alloc = solve_min_cost_dp(costs, caps, 100);
  EXPECT_EQ(alloc.units[0], 5);
}

TEST(EmaDp, PositiveSlopeUserStaysIdleUnlessTailDominates) {
  EmaSlotCosts costs;
  costs.idle_cost = {0.5, 40.0};
  costs.active_base = {0.0, 0.0};
  costs.slope = {1.0, 1.0};
  const std::vector<std::int64_t> caps{5, 5};
  const Allocation alloc = solve_min_cost_dp(costs, caps, 100);
  EXPECT_EQ(alloc.units[0], 0);  // idle (0.5) beats transmitting (>= 1.0)
  EXPECT_EQ(alloc.units[1], 1);  // one unit (1.0) beats the 40.0 tail
}

TEST(EmaDp, ZeroCapacityMeansNoAllocation) {
  EmaSlotCosts costs;
  costs.idle_cost = {10.0};
  costs.active_base = {0.0};
  costs.slope = {-5.0};
  const std::vector<std::int64_t> caps{3};
  const Allocation alloc = solve_min_cost_dp(costs, caps, 0);
  EXPECT_EQ(alloc.units[0], 0);
}

TEST(EmaScheduler, QueueEvolvesByEq16) {
  EmaScheduler ema(EmaConfig{0.05});
  ema.reset(1);
  // Strong signal, big queue pressure expected after idle slots.
  std::vector<TestUser> users{TestUser{-110.0, 400.0}};
  users[0].rrc_promoted = false;
  const SlotContext ctx = make_context(users);
  const Allocation alloc = decide(ema, ctx);
  // PC(1) = PC(0) + tau - t(0) where t = kb / p.
  const double t = as_double(alloc.units[0]) * 100.0 / 400.0;
  EXPECT_NEAR(ema.queues().value(0), 1.0 - t, 1e-9);
}

TEST(EmaScheduler, QueueFrozenWhenContentExhausted) {
  EmaScheduler ema(EmaConfig{0.05});
  ema.reset(1);
  std::vector<TestUser> users{TestUser{-80.0, 400.0}};
  users[0].remaining_kb = 0.0;
  const SlotContext ctx = make_context(users);
  (void)decide(ema, ctx);
  EXPECT_DOUBLE_EQ(ema.queues().value(0), 0.0);
}

TEST(EmaScheduler, AllocationsAlwaysFeasible) {
  EmaScheduler ema(EmaConfig{0.05});
  ema.reset(4);
  Rng rng(5);
  for (int slot = 0; slot < 50; ++slot) {
    std::vector<TestUser> users;
    for (int i = 0; i < 4; ++i) {
      TestUser user;
      user.signal_dbm = rng.uniform(-110.0, -50.0);
      user.bitrate_kbps = rng.uniform(300.0, 600.0);
      user.rrc_promoted = slot > 0;
      user.rrc_idle_s = rng.uniform(0.0, 8.0);
      users.push_back(user);
    }
    const SlotContext ctx = make_context(users, 2000.0);
    const Allocation alloc = decide(ema, ctx);
    EXPECT_LE(alloc.total_units(), ctx.capacity_units);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LE(alloc.units[i], ctx.users[i].alloc_cap_units);
    }
  }
}

TEST(EmaScheduler, RequiresResetBeforeUse) {
  EmaScheduler ema;
  const SlotContext ctx = make_context({TestUser{}});
  EXPECT_THROW((void)decide(ema, ctx), Error);
}

TEST(EmaScheduler, RejectsNonPositiveV) {
  EXPECT_THROW(EmaScheduler(EmaConfig{0.0}), Error);
  EXPECT_THROW(EmaScheduler(EmaConfig{-1.0}), Error);
}

}  // namespace
}  // namespace jstream
