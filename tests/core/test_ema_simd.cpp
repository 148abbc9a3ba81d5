// Differential fuzz for the exact EMA solver (separable fast path + valley
// and deque DP rows, compiled with the JSTREAM_EMA_SIMD flags) against the
// paper-literal reference DP: the same optimal cost on every instance,
// forced exact ties included, and the same units for every user wherever the
// argmin is unique. Against a copy of the deque-only solver the units must
// match everywhere, ties included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
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

// ---------------------------------------------------------------------------
// Tie-exact oracle: the production solver as it stood before valley rows and
// the reachable-column bound — the separable fast path in front of
// full-width monotone-deque rows — copied verbatim apart from a local
// workspace. The production solver must return its units exactly, forced
// ties included, because a valley row only replaces the deque where both
// provably pick the same window minimum.
namespace deque_oracle {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSeparableMarginRel = 1e-12;

std::int64_t dp_columns(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                        std::int64_t capacity_units) {
  const std::size_t n = caps.size();
  require(costs.idle_cost.size() == n && costs.slope.size() == n &&
              costs.active_base.size() == n,
          "cost/cap size mismatch");
  require(capacity_units >= 0, "capacity must be non-negative");
  std::int64_t cap_sum = 0;
  for (std::int64_t c : caps) {
    require(c >= 0, "caps must be non-negative");
    cap_sum += c;
  }
  return std::min(capacity_units, cap_sum);
}

bool try_separable(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                   std::int64_t m_max, std::vector<std::int64_t>& out) {
  const std::size_t n = caps.size();
  const double* JSTREAM_RESTRICT idle = costs.idle_cost.data();
  const double* JSTREAM_RESTRICT base = costs.active_base.data();
  const double* JSTREAM_RESTRICT slope = costs.slope.data();
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    scale += std::abs(idle[i]) + std::abs(base[i]) +
             std::abs(slope[i]) * as_double(caps[i]);
  }
  if (scale == 0.0) {
    return true;
  }
  const double margin = kSeparableMarginRel * scale;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cap = caps[i];
    if (cap == 0) continue;
    const std::int64_t phi = slope[i] < 0.0 ? cap : 1;
    const double active = base[i] + slope[i] * as_double(phi);
    const double gain = idle[i] - active;
    if (!(std::abs(gain) > margin)) return false;
    if (cap > 1 && !(std::abs(slope[i]) > margin)) return false;
    if (gain > 0.0) {
      out[i] = phi;
      total += phi;
      if (total > m_max) return false;
    }
  }
  return true;
}

void dp_row(const double* JSTREAM_RESTRICT prev, double* JSTREAM_RESTRICT cur,
            std::int32_t* JSTREAM_RESTRICT g, std::size_t width, std::int64_t cap,
            double idle, double base, double slope,
            double* JSTREAM_RESTRICT dq_key, std::int32_t* JSTREAM_RESTRICT dq) {
  cur[0] = prev[0] + idle;
  g[0] = 0;
  if (cap == 0) {
    for (std::size_t m = 1; m < width; ++m) {
      cur[m] = prev[m] + idle;
      g[m] = 0;
    }
    return;
  }
  if (cap == 1) {
    for (std::size_t m = 1; m < width; ++m) {
      double best = prev[m] + idle;
      std::int32_t best_phi = 0;
      const double candidate = prev[m - 1] + base + slope * 1.0;
      if (candidate < best) {
        best = candidate;
        best_phi = 1;
      }
      cur[m] = best;
      g[m] = best_phi;
    }
    return;
  }
  std::size_t head = 0;
  std::size_t tail = 0;
  double prev_m = prev[0];
  for (std::size_t m = 1; m < width; ++m) {
    const double key = prev_m - slope * as_double(m - 1);
    while (tail > head && key <= dq_key[tail - 1]) --tail;
    dq_key[tail] = key;
    dq[tail] = checked_i32(m - 1);
    ++tail;
    if (std::int64_t{dq[head]} < checked_index(m) - cap) ++head;
    prev_m = prev[m];
    double best = prev_m + idle;
    std::int32_t best_phi = 0;
    const auto j = checked_size(dq[head]);
    const auto phi = checked_index(m - j);
    const double candidate = prev[j] + base + slope * as_double(phi);
    if (candidate < best) {
      best = candidate;
      best_phi = checked_i32(phi);
    }
    cur[m] = best;
    g[m] = best_phi;
  }
}

void backtrack(const double* final_row, const std::int32_t* choice, std::size_t n,
               std::size_t width, std::vector<std::int64_t>& out) {
  std::size_t m = 0;
  for (std::size_t candidate = 1; candidate < width; ++candidate) {
    if (final_row[candidate] < final_row[m]) m = candidate;
  }
  for (std::size_t i = n; i-- > 0;) {
    const auto phi = std::int64_t{choice[i * width + m]};
    out[i] = phi;
    m -= checked_size(phi);
  }
}

struct Workspace {
  std::vector<double> prev;
  std::vector<double> cur;
  std::vector<double> window_key;
  std::vector<std::int32_t> deque;
  std::vector<std::int32_t> choice;
};

void solve_min_cost_dp(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                       std::int64_t capacity_units, Workspace& ws, Allocation& out) {
  const std::size_t n = caps.size();
  const std::int64_t m_max = dp_columns(costs, caps, capacity_units);
  out.units.assign(n, 0);
  if (n == 0 || m_max == 0) return;
  require(m_max < std::numeric_limits<std::int32_t>::max(),
          "capacity exceeds DP index range");

  if (try_separable(costs, caps, m_max, out.units)) {
    return;
  }
  std::fill(out.units.begin(), out.units.end(), 0);

  const std::size_t width = checked_size(m_max) + 1;
  ws.prev.resize(width);
  ws.cur.resize(width);
  ws.window_key.resize(width);
  ws.deque.resize(width);
  ws.choice.resize(n * width);
  double* prev = ws.prev.data();
  double* cur = ws.cur.data();
  std::fill_n(prev, width, kInf);
  prev[0] = 0.0;

  for (std::size_t i = 0; i < n; ++i) {
    dp_row(prev, cur, &ws.choice[i * width], width, caps[i], costs.idle_cost[i],
           costs.active_base[i], costs.slope[i], ws.window_key.data(),
           ws.deque.data());
    std::swap(prev, cur);
  }
  backtrack(prev, ws.choice.data(), n, width, out.units);
}

}  // namespace deque_oracle

// The instance families of the differential test below.
enum class Family {
  kEq5,            // Eq. 5 accounting: active_base = 0, idle >= 0
  kContinuousTail, // continuous-time Eq. 4: active_base > idle
  kMixedForcedTie, // random_instance's draw, exact ties forced
  kQuarterGrid,    // slopes, idles and bases on a 0.25 grid: ties everywhere
  kCongested,      // the ema-congested shape: N = 100, M = 400, caps 3..42
  kNonFinite,      // some costs +inf, -inf or NaN: the solver's public input
                   // is not limited to what compute_ema_slot_costs produces
};

// Caps include 0 and 1 (the idle-shift and window-of-one rows); capacity
// ranges from 0 past the cap sum, so instances are slack or binding and the
// first rows usually reach fewer than M columns.
Instance family_instance(Family family, Rng& rng) {
  if (family == Family::kMixedForcedTie) {
    bool forced_tie = false;
    return random_instance(rng, 14, 24, forced_tie);
  }
  const bool congested = family == Family::kCongested;
  const std::size_t n = congested ? 100 : checked_size(rng.uniform_int(1, 14));
  Instance inst;
  inst.costs.idle_cost.resize(n);
  inst.costs.active_base.resize(n);
  inst.costs.slope.resize(n);
  inst.caps.resize(n);
  std::int64_t cap_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double idle = rng.uniform(0.0, 5.0);
    double base = 0.0;
    double slope = rng.uniform(-1.0, 1.0);
    if (family == Family::kContinuousTail) {
      idle = rng.uniform(0.0, 2.0);
      base = idle + rng.uniform(0.05, 2.0);
    } else if (family == Family::kQuarterGrid) {
      idle = 0.25 * as_double(rng.uniform_int(0, 8));
      base = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : 0.25 * as_double(rng.uniform_int(0, 8));
      slope = 0.25 * as_double(rng.uniform_int(-4, 4));
    } else if (congested) {
      // Queue pressure outweighs energy for most users under congestion.
      idle = rng.uniform(0.0, 0.5);
      slope = rng.uniform(-1.0, 0.1);
    }
    if (family == Family::kNonFinite) {
      constexpr double kBad[] = {std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN()};
      for (double* cost : {&idle, &base, &slope}) {
        if (rng.uniform(0.0, 1.0) < 0.1) *cost = kBad[checked_size(rng.uniform_int(0, 2))];
      }
    }
    inst.costs.idle_cost[i] = idle;
    inst.costs.active_base[i] = base;
    inst.costs.slope[i] = slope;
    const double cap_roll = rng.uniform(0.0, 1.0);
    inst.caps[i] = congested         ? rng.uniform_int(3, 42)
                   : cap_roll < 0.1 ? 0
                   : cap_roll < 0.2 ? 1
                                    : rng.uniform_int(2, 24);
    cap_sum += inst.caps[i];
  }
  inst.capacity = congested ? 400 : rng.uniform_int(0, cap_sum + 24);
  return inst;
}

struct FamilyRun {
  std::int64_t dp_solves = 0;
  std::int64_t deque_rows = 0;
  std::int64_t separable_hits = 0;
  int with_cap_0 = 0;
  int with_cap_1 = 0;
  int short_first_row = 0;  // the first row reaches fewer than M columns
};

FamilyRun run_family(Family family, int trials, std::uint64_t seed) {
  FamilyRun run;
  Rng rng(seed);
  EmaDpWorkspace ws;
  deque_oracle::Workspace oracle_ws;
  Allocation got;
  Allocation want;
  for (int trial = 0; trial < trials; ++trial) {
    Rng trial_rng = rng.split(static_cast<std::uint64_t>(trial));
    const Instance inst = family_instance(family, trial_rng);
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, got);
    deque_oracle::solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, oracle_ws,
                                    want);
    expect_identical_units(got, want, trial, "valley-vs-deque");
    if (::testing::Test::HasFatalFailure()) return run;
    const auto has_cap = [&](std::int64_t c) {
      return std::find(inst.caps.begin(), inst.caps.end(), c) != inst.caps.end();
    };
    run.with_cap_0 += has_cap(0) ? 1 : 0;
    run.with_cap_1 += has_cap(1) ? 1 : 0;
    std::int64_t cap_sum = 0;
    for (const std::int64_t c : inst.caps) cap_sum += c;
    const std::int64_t m_max = std::min(inst.capacity, cap_sum);
    run.short_first_row += !inst.caps.empty() && inst.caps[0] < m_max ? 1 : 0;
  }
  run.dp_solves = ws.dp_solves;
  run.deque_rows = ws.deque_rows;
  run.separable_hits = ws.separable_hits;
  return run;
}

// Valley rows and the reachable-column bound change how a row is computed,
// never what it decides: unit for unit, the production solver matches the
// deque oracle on 22,300 instances of six families. Under Eq. 5 every cost
// is convex in phi, so no row falls back to the deque; continuous tails make
// the first unit dearer than the rest, and some rows must fall back.
TEST(EmaValleyRows, MatchDequeOracleUnitForUnitOnSixFamilies) {
  const FamilyRun eq5 = run_family(Family::kEq5, 5000, 0x5eed0001);
  ASSERT_FALSE(HasFatalFailure());
  const FamilyRun tail = run_family(Family::kContinuousTail, 5000, 0x5eed0002);
  ASSERT_FALSE(HasFatalFailure());
  const FamilyRun mixed = run_family(Family::kMixedForcedTie, 5000, 0x5eed0003);
  ASSERT_FALSE(HasFatalFailure());
  const FamilyRun grid = run_family(Family::kQuarterGrid, 5000, 0x5eed0004);
  ASSERT_FALSE(HasFatalFailure());
  const FamilyRun congested = run_family(Family::kCongested, 300, 0x5eed0005);
  ASSERT_FALSE(HasFatalFailure());
  const FamilyRun non_finite = run_family(Family::kNonFinite, 2000, 0x5eed0006);
  ASSERT_FALSE(HasFatalFailure());

  EXPECT_GT(eq5.dp_solves, 0);
  EXPECT_EQ(eq5.deque_rows, 0);
  EXPECT_EQ(congested.dp_solves, 300);
  EXPECT_EQ(congested.deque_rows, 0);
  EXPECT_GT(tail.dp_solves, 0);
  EXPECT_GT(tail.deque_rows, 0);
  EXPECT_GT(non_finite.deque_rows, 0);
  for (const FamilyRun* run : {&eq5, &tail, &mixed, &grid, &non_finite}) {
    EXPECT_GT(run->dp_solves, 0);       // binding capacity
    EXPECT_GT(run->separable_hits, 0);  // slack capacity
    EXPECT_GT(run->with_cap_0, 0);
    EXPECT_GT(run->with_cap_1, 0);
    EXPECT_GT(run->short_first_row, 0);
  }
}

// A window key that overflows to +inf on a column the earlier users can fill:
// the deque pops it when the +inf key of the next, unfillable column arrives,
// so the valley formula would name a different window minimum. That row must
// run the deque.
TEST(EmaValleyRows, OverflowedReachableKeyFallsBackToTheDeque) {
  Instance inst;
  // User 0 takes up to 3 units at -1e300 each. User 1's key overflows at
  // j = 3 (3 * 7e307 > DBL_MAX) while its candidates (phi <= 2) stay finite.
  // User 2 ties at every phi, which keeps the separable path out.
  inst.costs.idle_cost.assign(3, 0.0);
  inst.costs.active_base.assign(3, 0.0);
  inst.costs.slope = {-1e300, -7e307, 0.0};
  inst.caps = {3, 2, 1};
  inst.capacity = 5;
  EmaDpWorkspace ws;
  Allocation got;
  solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, got);
  deque_oracle::Workspace oracle_ws;
  Allocation want;
  deque_oracle::solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, oracle_ws, want);
  expect_identical_units(got, want, 0, "overflowed key");
  EXPECT_EQ(ws.dp_solves, 1);
  EXPECT_EQ(ws.deque_rows, 1);
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
