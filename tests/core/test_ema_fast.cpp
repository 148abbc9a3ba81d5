#include "core/ema_fast.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "test_helpers.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

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

TEST(EmaGreedy, FeasibleOnRandomInstances) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + checked_size(rng.uniform_int(0, 9));
    std::vector<std::int64_t> caps;
    for (std::size_t i = 0; i < n; ++i) caps.push_back(rng.uniform_int(0, 30));
    const std::int64_t capacity = rng.uniform_int(0, 80);
    const EmaSlotCosts costs = random_costs(rng, n);
    const Allocation alloc = solve_min_cost_greedy(costs, caps, capacity);
    EXPECT_LE(alloc.total_units(), capacity);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(alloc.units[i], 0);
      EXPECT_LE(alloc.units[i], caps[i]);
    }
  }
}

TEST(EmaGreedy, NeverWorseThanAllIdle) {
  Rng rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + checked_size(rng.uniform_int(0, 7));
    std::vector<std::int64_t> caps(n, 10);
    const EmaSlotCosts costs = random_costs(rng, n);
    const Allocation alloc = solve_min_cost_greedy(costs, caps, 40);
    double idle_total = 0.0;
    for (double idle : costs.idle_cost) idle_total += idle;
    EXPECT_LE(total_cost(costs, alloc), idle_total + 1e-9);
  }
}

TEST(EmaGreedy, CloseToDpObjectiveOnRandomInstances) {
  // The greedy is a documented heuristic; assert it lands within a small
  // additive margin of the exact DP across many random slot problems.
  Rng rng(41);
  double worst_gap = 0.0;
  double total_gap = 0.0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + checked_size(rng.uniform_int(0, 6));
    std::vector<std::int64_t> caps;
    for (std::size_t i = 0; i < n; ++i) caps.push_back(rng.uniform_int(0, 12));
    const std::int64_t capacity = rng.uniform_int(4, 40);
    const EmaSlotCosts costs = random_costs(rng, n);
    const double dp = total_cost(costs, solve_min_cost_dp(costs, caps, capacity));
    const double greedy =
        total_cost(costs, solve_min_cost_greedy(costs, caps, capacity));
    EXPECT_GE(greedy, dp - 1e-9);  // DP is optimal
    worst_gap = std::max(worst_gap, greedy - dp);
    total_gap += greedy - dp;
  }
  // Gaps stem from the activation jump under a binding budget; even on these
  // adversarial cost draws (idle costs up to 40, slopes +-15 — far harsher
  // than any real slot problem) the worst case must stay bounded and the
  // average small. End-to-end closeness is asserted separately in
  // PaperClaims.EmaFastTracksExactEmaClosely.
  EXPECT_LT(worst_gap, 80.0);
  EXPECT_LT(total_gap / 300.0, 5.0);
}

TEST(EmaGreedy, MatchesDpWhenBudgetIsLoose) {
  // Without a binding budget the per-user optimum is separable: the greedy's
  // {0, 1, cap} choice equals the DP's.
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + checked_size(rng.uniform_int(0, 5));
    std::vector<std::int64_t> caps;
    std::int64_t cap_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      caps.push_back(rng.uniform_int(0, 8));
      cap_sum += caps.back();
    }
    const EmaSlotCosts costs = random_costs(rng, n);
    const double dp = total_cost(costs, solve_min_cost_dp(costs, caps, cap_sum));
    const double greedy = total_cost(costs, solve_min_cost_greedy(costs, caps, cap_sum));
    EXPECT_NEAR(greedy, dp, 1e-9);
  }
}

TEST(EmaFastScheduler, SameQueueDynamicsAsExact) {
  EmaFastScheduler fast(EmaConfig{0.05});
  EmaScheduler exact(EmaConfig{0.05});
  fast.reset(2);
  exact.reset(2);
  EXPECT_EQ(fast.name(), "ema-fast");
  const SlotContext ctx =
      make_context({TestUser{-70.0, 400.0}, TestUser{-100.0, 500.0}});
  const Allocation a = decide(fast, ctx);
  const Allocation b = decide(exact, ctx);
  // With an unconstrained budget both solvers pick the separable optimum and
  // the queues evolve identically.
  EXPECT_EQ(a.units, b.units);
  EXPECT_DOUBLE_EQ(fast.queues().value(0), exact.queues().value(0));
}

}  // namespace
}  // namespace jstream
