// Predictive EMA: Algorithm 2's drift-plus-penalty slot DP with an H-slot
// predicted-price deferral term in the cost model (the ROADMAP's "predictive
// scheduling against the oracle bound" item; Abou-zeid/Hassanein/Valentin,
// "Exploiting Rate Predictions in Wireless Networks").
//
// Per user i at slot n, let P_now be the per-KB price the collector reports,
// P_best = min_{1 <= h <= H} P(forecast_i(n + h)) the best price the forecast
// promises inside the horizon, and P_mean the horizon's average price — the
// rate the user would pay by pacing through the window instead of timing it.
// The slot cost's per-unit slope gains two terms:
//
//   * deferral surcharge, + V * defer_weight * (P_now - P_best) * delta when
//     P_now > P_best — the channel is predicted to improve; transmitting now
//     is charged the predicted saving of waiting for the cheapest forecast
//     slot, but only when the Eq. 3-5 buffer can ride out the wait
//     (buffer_s >= wait + safety_margin_s) — a draining client keeps the
//     plain EMA cost and the Eq. 16 queue pressure still forces service;
//   * crest credit, + V * prefetch_weight * (P_now - P_mean) * delta when
//     P_now < P_mean — this slot is cheaper than pacing through the horizon
//     would be; the credit makes the DP buy ahead through the crest, batching
//     delivery where the oracle's transportation solve would put it. The
//     credit is against the horizon MEAN, not P_best: with periodic fading a
//     window long enough to be useful always contains another crest, so
//     P_best ~= P_now at the very slots that should prefetch and a
//     best-price credit never fires (measured: it recovers ~2% of the oracle
//     headroom where the mean-referenced credit recovers over half).
//
// The surcharge empties expensive slots into the Eq. 16 queue; the credit
// releases the queue (and buys ahead of it) at the crests. Together they
// reshape WHEN the exact DP spends capacity without touching its constraint
// set — Eq. 1/2 feasibility and the rebuffering guarantee are the solver's,
// unchanged.
//
// The perturbation lives entirely in the EmaScheduler::adjust_costs hook:
// the DP stays exact for the adjusted objective, Eq. 1/2
// feasibility is enforced by the unchanged solver, and the Eq. 16 queue
// update is untouched — so the --validate invariant checker applies as-is.
// With horizon_slots == 0 the hook is inert and the scheduler is
// bit-identical to EmaScheduler (pinned by tests/core/test_predictive_ema.cpp).
//
// Forecasts come from make_signal_forecast (sim/forecast.hpp) — perfect or
// through the tunable error model; the scheduler itself is forecast-agnostic
// and lives below the sim layer, exactly like LookaheadScheduler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ema.hpp"

namespace jstream {

/// Predictive extension knobs on top of EmaConfig.
struct PredictiveEmaConfig {
  /// Prediction window length H. 0 (default) disables the deferral term
  /// entirely: no forecast is read and the scheduler is bit-identical to
  /// EmaScheduler.
  std::int64_t horizon_slots = 0;
  /// Fraction of the predicted per-KB saving (P_now - P_best) charged to the
  /// current slot when the forecast promises a cheaper one. 1 prices deferral
  /// at face value; smaller values trust the forecast less.
  double defer_weight = 1.0;
  /// Fraction of the below-horizon-mean discount (P_mean - P_now) credited to
  /// the current slot. Values above ~P_now / (P_mean - P_now) drive the DP to
  /// buy ahead to the Eq. 1/2 caps at clear crests, which is where the oracle
  /// headroom lives; the default is tuned on the paper scenario
  /// (bench_prediction's acceptance gate).
  double prefetch_weight = 8.0;
  /// Deferral is considered only when the client buffer covers the predicted
  /// wait plus this margin (Eq. 3-5: never schedule a stall on a forecast).
  double safety_margin_s = 8.0;
};

/// Validates ranges; throws jstream::Error with a description.
void validate(const PredictiveEmaConfig& config);

/// EMA with the predicted-price deferral term. Construct with forecasts from
/// make_signal_forecast covering at least the simulation horizon (rows may be
/// empty when horizon_slots == 0).
class PredictiveEmaScheduler final : public EmaScheduler {
 public:
  PredictiveEmaScheduler(EmaConfig ema, PredictiveEmaConfig config,
                         std::vector<std::vector<double>> signal_forecast_dbm);

  [[nodiscard]] std::string name() const override { return "ema-predictive"; }
  void reset(std::size_t users) override;

  [[nodiscard]] const PredictiveEmaConfig& predictive_config() const noexcept {
    return pred_config_;
  }

  /// The forecast price table entry for (user, slot): cheapest predicted
  /// per-KB price in (slot, slot + H], the offset (in slots ahead) achieving
  /// it, and the window's mean price (the crest-credit reference). Valid once
  /// a slot has been scheduled (the tables are built lazily from the run's
  /// PowerModel). For tests/benches.
  struct PricePrediction {
    double best_price = 0.0;
    std::int64_t best_offset = 0;
    double mean_price = 0.0;
  };
  [[nodiscard]] PricePrediction price_prediction(std::size_t user,
                                                 std::int64_t slot) const;

 protected:
  void adjust_costs(const SlotContext& ctx, EmaSlotCosts& costs) override;

 private:
  /// Precomputes best_price_/best_offset_/mean_price_ for every (user, slot)
  /// via a monotone-deque sliding-window minimum plus prefix sums over each
  /// user's forecast price trajectory — O(users x slots) once per run, so the
  /// per-slot hook is a pure table read.
  void build_price_tables(const PowerModel& power);

  PredictiveEmaConfig pred_config_;
  std::vector<std::vector<double>> forecast_dbm_;
  std::vector<double> best_price_;         ///< flat [user * table_slots_ + slot]
  std::vector<std::int32_t> best_offset_;  ///< slots ahead of the best price
  std::vector<double> mean_price_;         ///< window mean (credit reference)
  std::vector<std::int32_t> window_;       ///< deque scratch for the build
  std::size_t table_slots_ = 0;
  const PowerModel* table_power_ = nullptr;  ///< model the tables were built for
};

}  // namespace jstream
