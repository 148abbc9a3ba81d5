// Differential fuzz for the exact EMA solver (separable fast path + monotone
// deque DP, compiled with the JSTREAM_EMA_SIMD flags) against the
// paper-literal reference DP: the same optimal cost on every instance,
// forced exact ties included, and the same units for every user wherever the
// argmin is unique.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/ema.hpp"
#include "net/allocation.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

double total_cost(const EmaSlotCosts& costs, const Allocation& alloc) {
  double sum = 0.0;
  for (std::size_t i = 0; i < alloc.units.size(); ++i) {
    sum += ema_cost(costs, i, alloc.units[i]);
  }
  return sum;
}

struct Instance {
  EmaSlotCosts costs;
  std::vector<std::int64_t> caps;
  std::int64_t capacity = 0;
};

// Mirrors the regimes compute_ema_slot_costs produces (positive/negative
// slopes, zero caps, zero bases) plus adversarial near-ties: with probability
// 1/4 the slope is snapped to 0 or to an exact copy of a neighbor's, forcing
// the tie-break paths and the separable margin fallback. `forced_tie` records
// whether any snap happened.
Instance random_instance(Rng& rng, std::size_t max_users, std::int64_t max_cap,
                         bool& forced_tie) {
  forced_tie = false;
  Instance inst;
  const auto n = checked_size(
      rng.uniform_int(0, checked_index(max_users)));
  inst.costs.idle_cost.resize(n);
  inst.costs.active_base.resize(n);
  inst.costs.slope.resize(n);
  inst.caps.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.costs.idle_cost[i] = rng.uniform(0.0, 5.0);
    inst.costs.active_base[i] =
        rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : rng.uniform(0.0, 2.0);
    inst.costs.slope[i] = rng.uniform(-1.0, 1.0);
    const double tie_roll = rng.uniform(0.0, 1.0);
    if (tie_roll < 0.1) {
      inst.costs.slope[i] = 0.0;  // flat active segment: every phi ties
      forced_tie = true;
    } else if (tie_roll < 0.25 && i > 0) {
      forced_tie = true;
      inst.costs.slope[i] = inst.costs.slope[i - 1];
      inst.costs.idle_cost[i] = inst.costs.idle_cost[i - 1];
      inst.costs.active_base[i] = inst.costs.active_base[i - 1];
    }
    inst.caps[i] = rng.uniform(0.0, 1.0) < 0.1 ? 0 : rng.uniform_int(0, max_cap);
  }
  inst.capacity = rng.uniform_int(0, 2 * max_cap);
  return inst;
}

// A slack-capacity instance: the sum of unconstrained optima always fits, so
// the separable fast path is eligible whenever its tie margins clear.
Instance slack_instance(Rng& rng, std::size_t users, std::int64_t max_cap) {
  Instance inst;
  inst.costs.idle_cost.resize(users);
  inst.costs.active_base.resize(users);
  inst.costs.slope.resize(users);
  inst.caps.resize(users);
  std::int64_t cap_sum = 0;
  for (std::size_t i = 0; i < users; ++i) {
    inst.costs.idle_cost[i] = rng.uniform(0.0, 5.0);
    inst.costs.active_base[i] = rng.uniform(0.0, 2.0);
    inst.costs.slope[i] = rng.uniform(-1.0, 1.0);
    inst.caps[i] = rng.uniform_int(1, max_cap);
    cap_sum += inst.caps[i];
  }
  inst.capacity = cap_sum + rng.uniform_int(0, max_cap);
  return inst;
}

void expect_identical_units(const Allocation& got, const Allocation& want,
                            int trial, const char* what) {
  ASSERT_EQ(got.units.size(), want.units.size()) << what << " trial " << trial;
  for (std::size_t i = 0; i < got.units.size(); ++i) {
    ASSERT_EQ(got.units[i], want.units[i])
        << what << " trial " << trial << " user " << i;
  }
}

// Forced-tie fuzz: across 1000 randomized instances the production solver
// reaches the reference optimum on every instance, and on the instances where
// no tie was forced it returns the reference's units exactly. Where exact
// ties exist the argmin is not unique: the deque breaks them through
// sliding-window keys (prev[j] - slope*j) while the reference compares full
// candidates (prev[j] + base + slope*phi), so the two may pick different
// allocations of the same cost.
TEST(EmaSimdSolver, FuzzForcedTiesMatchReferenceCost) {
  Rng rng(20260808);
  EmaDpWorkspace ws;
  Allocation fast;
  int tie_free = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    bool forced_tie = false;
    const Instance inst = random_instance(trial_rng, 14, 24, forced_tie);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, fast);
    const Allocation ref =
        solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
    ASSERT_NEAR(total_cost(inst.costs, fast), total_cost(inst.costs, ref), 1e-9)
        << "trial " << trial;
    if (!forced_tie) {
      expect_identical_units(fast, ref, trial, "tie-free");
      ++tie_free;
    }
  }
  EXPECT_GT(tie_free, 0);
}

// On tie-free instances (continuous cost draws, no snapping) both solvers
// share a unique argmin: assert full unit-level agreement.
TEST(EmaSimdSolver, FuzzTieFreeInstancesMatchReferenceExactly) {
  Rng rng(1618);
  EmaDpWorkspace ws;
  Allocation fast;
  for (int trial = 0; trial < 500; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    Instance inst;
    const auto n = checked_size(trial_rng.uniform_int(0, 14));
    inst.costs.idle_cost.resize(n);
    inst.costs.active_base.resize(n);
    inst.costs.slope.resize(n);
    inst.caps.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      inst.costs.idle_cost[i] = trial_rng.uniform(0.0, 5.0);
      inst.costs.active_base[i] = trial_rng.uniform(0.0, 2.0);
      inst.costs.slope[i] = trial_rng.uniform(-1.0, 1.0);
      inst.caps[i] =
          trial_rng.uniform(0.0, 1.0) < 0.1 ? 0 : trial_rng.uniform_int(0, 24);
    }
    inst.capacity = trial_rng.uniform_int(0, 48);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, fast);
    const Allocation ref =
        solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
    expect_identical_units(fast, ref, trial, "dp-vs-reference");
  }
}

// Same contract on slack instances, where the separable fast path fires: the
// O(N) path must agree with the full DP unit-for-unit, and near-tie instances
// must fall back rather than guess.
TEST(EmaSimdSolver, SeparableFastPathBitIdenticalToReference) {
  Rng rng(555);
  EmaDpWorkspace ws;
  Allocation fast;
  std::int64_t separable_before = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    const Instance inst = slack_instance(trial_rng, 12, 10);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, fast);
    const Allocation ref =
        solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
    expect_identical_units(fast, ref, trial, "separable-vs-reference");
    separable_before = ws.separable_hits;
  }
  // The path must actually engage on slack instances, not silently fall back.
  EXPECT_GT(separable_before, 0);
}

// An all-zero-cost instance ties every allocation; the DP's tie-breaks pick
// all-idle, and the separable path must reproduce exactly that.
TEST(EmaSimdSolver, AllZeroCostsResolveToAllIdle) {
  Instance inst;
  inst.costs.idle_cost.assign(6, 0.0);
  inst.costs.active_base.assign(6, 0.0);
  inst.costs.slope.assign(6, 0.0);
  inst.caps.assign(6, 4);
  inst.capacity = 12;
  const Allocation fast = solve_min_cost_dp(inst.costs, inst.caps, inst.capacity);
  const Allocation ref =
      solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
  expect_identical_units(fast, ref, 0, "zero-cost");
  for (const std::int64_t phi : fast.units) EXPECT_EQ(phi, 0);
}

}  // namespace
}  // namespace jstream
