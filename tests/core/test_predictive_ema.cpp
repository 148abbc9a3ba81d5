// PredictiveEmaScheduler (core/predictive_ema.hpp):
//   * horizon 0 (with or without a forecast error spec) is bit-identical to
//     the plain EmaScheduler across every catalog scenario — the adjust_costs
//     hook must be inert, so all pre-existing golden digests stay byte-stable;
//   * fuzzed slot instances: the predictive allocation always satisfies
//     Eq. 1 (per-user caps) and Eq. 2 (cell capacity), and — the DP being
//     exact for the adjusted cost model — never costs more than a
//     lookahead-style greedy heuristic fed the same perfect-forecast prices;
//   * the price tables (windowed minimum / offset / window mean) match a
//     brute-force scan of the forecast.
#include "core/predictive_ema.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/ema.hpp"
#include "sim/catalog.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "test_helpers.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

std::vector<std::vector<double>> constant_forecast(std::size_t users, double dbm,
                                                   std::size_t slots = 64) {
  return std::vector<std::vector<double>>(users, std::vector<double>(slots, dbm));
}

// --- zero-horizon bit-identity across the scenario catalog -----------------

TEST(PredictiveEma, ZeroHorizonBitIdenticalToEmaAcrossCatalog) {
  for (const ScenarioPreset& preset : scenario_catalog()) {
    const std::string& name = preset.name;
    ScenarioConfig scenario = make_catalog_scenario(name, 5, 20260808);
    scenario.max_slots = std::min<std::int64_t>(scenario.max_slots, 150);
    scenario.arrival_spread_slots =
        std::min(scenario.arrival_spread_slots, scenario.max_slots - 1);
    SchedulerOptions options;  // ema_predictive.horizon_slots == 0
    const RunMetrics ema = run_experiment({"ema", "ema", scenario, options}, false);
    const RunMetrics pred =
        run_experiment({"pred", "ema-predictive", scenario, options}, false);
    EXPECT_EQ(metrics_digest(ema), metrics_digest(pred)) << name;
  }
}

TEST(PredictiveEma, ZeroHorizonIgnoresForecastErrorSpec) {
  // A non-trivial error model must not disturb the horizon-0 run: the hook
  // never reads the forecast, so the digest still matches plain EMA.
  ScenarioConfig scenario = make_catalog_scenario("paper", 4, 7);
  scenario.max_slots = 120;
  SchedulerOptions options;
  const RunMetrics ema = run_experiment({"ema", "ema", scenario, options}, false);
  scenario.forecast.sigma_dbm = 6.0;
  scenario.forecast.staleness_slots = 4;
  const RunMetrics pred =
      run_experiment({"pred", "ema-predictive", scenario, options}, false);
  EXPECT_EQ(metrics_digest(ema), metrics_digest(pred));
}

TEST(PredictiveEma, HorizonChangesTheAllocation) {
  // Guard against the hook silently never firing: on the paper scenario a
  // long-horizon predictive run must differ from plain EMA.
  ScenarioConfig scenario = make_catalog_scenario("paper", 5, 11);
  scenario.max_slots = 200;
  SchedulerOptions options;
  const RunMetrics ema = run_experiment({"ema", "ema", scenario, options}, false);
  options.ema_predictive.horizon_slots = 60;
  const RunMetrics pred =
      run_experiment({"pred", "ema-predictive", scenario, options}, false);
  EXPECT_NE(metrics_digest(ema), metrics_digest(pred));
}

// --- price-table correctness ----------------------------------------------

TEST(PredictiveEma, PriceTablesMatchBruteForce) {
  const std::size_t slots = 40;
  const std::int64_t horizon = 7;
  Rng rng(99);
  std::vector<std::vector<double>> forecast(
      2, std::vector<double>(slots));
  for (auto& row : forecast) {
    for (double& dbm : row) dbm = rng.uniform(-110.0, -60.0);
  }

  PredictiveEmaConfig config;
  config.horizon_slots = horizon;
  PredictiveEmaScheduler scheduler({}, config, forecast);
  scheduler.reset(2);
  std::vector<TestUser> users(2);
  const SlotContext ctx = make_context(users);
  Allocation out = decide(scheduler, ctx);  // builds the tables lazily

  for (std::size_t user = 0; user < 2; ++user) {
    for (std::int64_t n = 0; n + 1 < checked_index(slots); ++n) {
      double best = 1e300;
      std::int64_t offset = 0;
      double sum = 0.0;
      std::int64_t count = 0;
      for (std::int64_t h = 1; h <= horizon && n + h < checked_index(slots); ++h) {
        const double price =
            ctx.power->energy_per_kb(forecast[user][checked_size(n + h)]);
        sum += price;
        ++count;
        if (price < best) {
          best = price;
          offset = h;
        }
      }
      const auto pred = scheduler.price_prediction(user, n);
      EXPECT_DOUBLE_EQ(pred.best_price, best) << "user " << user << " slot " << n;
      EXPECT_EQ(pred.best_offset, offset) << "user " << user << " slot " << n;
      // The table computes the mean via prefix sums — same value up to
      // summation order, so allow round-off slack (never behavioural drift).
      EXPECT_NEAR(pred.mean_price, sum / as_double(count), 1e-9)
          << "user " << user << " slot " << n;
    }
  }
}

// --- fuzz: feasibility + DP beats the lookahead-style greedy ---------------

/// Replays PredictiveEmaScheduler::adjust_costs from its public surface: the
/// price tables via price_prediction and the documented two-term rule.
void apply_predictive_adjustment(const PredictiveEmaScheduler& scheduler,
                                 const SlotContext& ctx, EmaSlotCosts& costs) {
  const PredictiveEmaConfig& pred = scheduler.predictive_config();
  const double scale =
      scheduler.config().v_weight * ctx.params.delta_kb;
  for (std::size_t i = 0; i < ctx.user_count(); ++i) {
    if (!ctx.soa.needs_data(i) || ctx.soa.alloc_cap_units[i] <= 0) continue;
    const auto tables = scheduler.price_prediction(i, ctx.slot);
    const double p_now = ctx.soa.energy_per_kb[i];
    double adjust = 0.0;
    const double save = p_now - tables.best_price;
    if (save > 0.0 &&
        ctx.soa.buffer_s[i] >= as_double(tables.best_offset) * ctx.params.tau_s +
                                   pred.safety_margin_s) {
      adjust += pred.defer_weight * save;
    }
    const double crest = p_now - tables.mean_price;
    if (crest < 0.0) adjust += pred.prefetch_weight * crest;
    costs.slope[i] += scale * adjust;
  }
}

/// Lookahead-flavored greedy on the same adjusted costs: serve users in
/// ascending marginal-cost order, each to the per-user extent that improves
/// its own cost, until the cell capacity runs out. Always feasible, so the
/// exact DP must never cost more.
std::vector<std::int64_t> greedy_heuristic(const EmaSlotCosts& costs,
                                           const SlotContext& ctx) {
  const std::size_t n = ctx.user_count();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return costs.slope[a] < costs.slope[b];
  });
  std::vector<std::int64_t> units(n, 0);
  std::int64_t left = ctx.capacity_units;
  for (const std::size_t i : order) {
    const std::int64_t cap = std::min<std::int64_t>(ctx.users[i].alloc_cap_units, left);
    if (cap <= 0) continue;
    // Linear cost: if any activity beats idling, the best extent is the cap.
    std::int64_t best_phi = 0;
    double best_cost = ema_cost(costs, i, 0);
    if (ema_cost(costs, i, cap) < best_cost) {
      best_phi = cap;
      best_cost = ema_cost(costs, i, cap);
    }
    if (ema_cost(costs, i, 1) < best_cost) best_phi = 1;
    units[i] = best_phi;
    left -= best_phi;
  }
  return units;
}

TEST(PredictiveEma, FuzzFeasibilityAndBeatsGreedy) {
  Rng rng(0xfeedf00d);
  constexpr int kInstances = 600;
  for (int instance = 0; instance < kInstances; ++instance) {
    const std::size_t n = checked_size(rng.uniform_int(1, 12));
    const std::size_t slots = checked_size(rng.uniform_int(4, 60));
    std::vector<std::vector<double>> forecast(n, std::vector<double>(slots));
    for (auto& row : forecast) {
      for (double& dbm : row) dbm = rng.uniform(-112.0, -58.0);
    }
    PredictiveEmaConfig pred;
    pred.horizon_slots = rng.uniform_int(1, checked_index(slots));
    pred.defer_weight = rng.uniform(0.0, 4.0);
    pred.prefetch_weight = rng.uniform(0.0, 16.0);
    pred.safety_margin_s = rng.uniform(0.0, 12.0);
    EmaConfig ema;
    ema.v_weight = rng.uniform(0.01, 0.5);
    PredictiveEmaScheduler scheduler(ema, pred, forecast);
    scheduler.reset(n);

    std::vector<TestUser> users(n);
    for (TestUser& user : users) {
      user.signal_dbm = rng.uniform(-112.0, -58.0);
      user.remaining_kb = rng.uniform(0.0, 4000.0);
      user.buffer_s = rng.uniform(0.0, 60.0);
    }
    const double capacity_kbps = rng.uniform(1000.0, 30000.0);
    const std::int64_t slot = rng.uniform_int(0, checked_index(slots) - 1);
    const SlotContext ctx = make_context(users, capacity_kbps, SlotParams{}, slot);

    // Twin plain scheduler supplies the pre-allocate queue state (both are
    // freshly reset, so their Eq. 16 queues agree).
    EmaScheduler twin(ema);
    twin.reset(n);
    const Allocation alloc = decide(scheduler, ctx);

    // Eq. 1 / Eq. 2 feasibility.
    ASSERT_EQ(alloc.units.size(), n);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(alloc.units[i], 0) << "instance " << instance;
      EXPECT_LE(alloc.units[i], ctx.users[i].alloc_cap_units)
          << "instance " << instance << " user " << i;
      total += alloc.units[i];
    }
    EXPECT_LE(total, ctx.capacity_units) << "instance " << instance;

    // The exact DP on the adjusted costs can never lose to the greedy.
    EmaSlotCosts costs = compute_ema_slot_costs(ctx, twin.queues(), ema.v_weight);
    apply_predictive_adjustment(scheduler, ctx, costs);
    const std::vector<std::int64_t> greedy = greedy_heuristic(costs, ctx);
    double dp_cost = 0.0;
    double greedy_cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ctx.users[i].needs_data) continue;
      dp_cost += ema_cost(costs, i, alloc.units[i]);
      greedy_cost += ema_cost(costs, i, greedy[i]);
    }
    EXPECT_LE(dp_cost, greedy_cost + 1e-9) << "instance " << instance;
  }
}

// --- construction guards ---------------------------------------------------

TEST(PredictiveEma, RejectsBadConfigAndMissingForecast) {
  EXPECT_THROW(
      {
        PredictiveEmaConfig bad;
        bad.horizon_slots = -1;
        validate(bad);
      },
      Error);
  EXPECT_THROW(
      {
        PredictiveEmaConfig bad;
        bad.prefetch_weight = -0.5;
        validate(bad);
      },
      Error);
  PredictiveEmaConfig config;
  config.horizon_slots = 5;
  EXPECT_THROW(PredictiveEmaScheduler({}, config, {}), Error);
  // Population mismatch surfaces at reset.
  PredictiveEmaScheduler scheduler({}, config, constant_forecast(2, -80.0));
  EXPECT_THROW(scheduler.reset(3), Error);
}

TEST(PredictiveEma, ValidateRejectsNonFiniteWeightsByName) {
  struct Field {
    double PredictiveEmaConfig::*member;
    const char* message;
  };
  const Field fields[] = {
      {&PredictiveEmaConfig::defer_weight, "defer weight must be finite"},
      {&PredictiveEmaConfig::prefetch_weight, "prefetch weight must be finite"},
      {&PredictiveEmaConfig::safety_margin_s, "safety margin must be finite"}};
  for (const Field& field : fields) {
    for (const double bad : testing::kNonFinite) {
      PredictiveEmaConfig config;
      config.*field.member = bad;
      const std::string error = testing::error_message([&] { validate(config); });
      EXPECT_NE(error.find(field.message), std::string::npos)
          << field.message << ", value " << bad << ": got \"" << error << "\"";
    }
  }
}

TEST(PredictiveEma, ScenarioFreeFactoryRefusesPredictive) {
  EXPECT_THROW((void)make_scheduler("ema-predictive"), Error);
  const auto names = scenario_scheduler_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names.front(), "ema-predictive");
}

}  // namespace
}  // namespace jstream
