#include "core/predictive_ema.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "radio/link_model.hpp"

namespace jstream {

void validate(const PredictiveEmaConfig& config) {
  require(config.horizon_slots >= 0, "prediction horizon must be non-negative");
  require(std::isfinite(config.defer_weight), "defer weight must be finite");
  require(config.defer_weight >= 0.0, "defer weight must be non-negative");
  require(std::isfinite(config.prefetch_weight), "prefetch weight must be finite");
  require(config.prefetch_weight >= 0.0, "prefetch weight must be non-negative");
  require(std::isfinite(config.safety_margin_s), "safety margin must be finite");
  require(config.safety_margin_s >= 0.0, "safety margin must be non-negative");
}

PredictiveEmaScheduler::PredictiveEmaScheduler(
    EmaConfig ema, PredictiveEmaConfig config,
    std::vector<std::vector<double>> signal_forecast_dbm)
    : EmaScheduler(ema),
      pred_config_(config),
      forecast_dbm_(std::move(signal_forecast_dbm)) {
  validate(pred_config_);
  if (pred_config_.horizon_slots > 0) {
    require(!forecast_dbm_.empty(), "predictive EMA needs a forecast");
    for (const std::vector<double>& trace : forecast_dbm_) {
      require(!trace.empty(), "forecast rows must cover at least one slot");
      require(trace.size() == forecast_dbm_.front().size(),
              "forecast rows must share one horizon");
    }
  }
}

void PredictiveEmaScheduler::reset(std::size_t users) {
  EmaScheduler::reset(users);
  if (pred_config_.horizon_slots > 0) {
    require(forecast_dbm_.size() == users,
            "forecast population does not match the scenario");
  }
  // The price tables depend on the run's PowerModel; drop them so the first
  // scheduled slot rebuilds against whatever model this run carries.
  table_power_ = nullptr;
}

PredictiveEmaScheduler::PricePrediction PredictiveEmaScheduler::price_prediction(
    std::size_t user, std::int64_t slot) const {
  require(table_slots_ > 0 && table_power_ != nullptr,
          "price tables not built yet (schedule at least one slot)");
  require(user < forecast_dbm_.size(), "user out of range");
  const std::size_t at =
      user * table_slots_ +
      std::min(checked_size(std::max<std::int64_t>(slot, 0)), table_slots_ - 1);
  return {best_price_[at], best_offset_[at], mean_price_[at]};
}

void PredictiveEmaScheduler::build_price_tables(const PowerModel& power) {
  const std::size_t users = forecast_dbm_.size();
  table_slots_ = forecast_dbm_.front().size();
  best_price_.resize(users * table_slots_);
  best_offset_.resize(users * table_slots_);
  mean_price_.resize(users * table_slots_);
  window_.resize(table_slots_);
  const std::int64_t slots = checked_index(table_slots_);
  const std::int64_t horizon = pred_config_.horizon_slots;
  std::vector<double> prices(table_slots_);
  std::vector<double> prefix(table_slots_ + 1);

  for (std::size_t user = 0; user < users; ++user) {
    const std::vector<double>& trace = forecast_dbm_[user];
    for (std::size_t m = 0; m < table_slots_; ++m) {
      prices[m] = power.energy_per_kb(trace[m]);
    }
    const std::size_t base = user * table_slots_;
    // Beyond the last forecast sample the window clamps to it (the same
    // convention LookaheadScheduler::best_future_price uses).
    best_price_[base + table_slots_ - 1] = prices[table_slots_ - 1];
    best_offset_[base + table_slots_ - 1] = 1;
    // Monotone-deque sliding-window minimum over (n, n + H], walked right to
    // left. window_[head..tail) holds candidate indices with strictly
    // increasing prices; an older (farther) candidate priced >= a newer one
    // is dominated (the newer is cheaper AND stays in the window longer), so
    // the head is always the window minimum — ties resolve to the nearest
    // slot, the offset the safety check should measure the wait against.
    std::int64_t head = 0;
    std::int64_t tail = 0;
    for (std::int64_t n = slots - 2; n >= 0; --n) {
      const std::int64_t j = n + 1;
      while (tail > head &&
             prices[checked_size(window_[checked_size(tail - 1)])] >=
                 prices[checked_size(j)]) {
        --tail;
      }
      window_[checked_size(tail++)] = checked_i32(j);
      while (window_[checked_size(head)] > n + horizon) ++head;
      const std::int64_t at_min = window_[checked_size(head)];
      best_price_[base + checked_size(n)] = prices[checked_size(at_min)];
      best_offset_[base + checked_size(n)] = checked_i32(at_min - n);
    }
    // Window means via prefix sums: mean over (n, min(n + H, last)], the
    // price of pacing through the window instead of timing it (the crest
    // credit's reference). The last slot keeps its own price, matching the
    // best-price clamp above.
    prefix[0] = 0.0;
    for (std::size_t m = 0; m < table_slots_; ++m) prefix[m + 1] = prefix[m] + prices[m];
    mean_price_[base + table_slots_ - 1] = prices[table_slots_ - 1];
    for (std::int64_t n = slots - 2; n >= 0; --n) {
      const std::int64_t hi = std::min(n + horizon, slots - 1);
      mean_price_[base + checked_size(n)] =
          (prefix[checked_size(hi + 1)] - prefix[checked_size(n + 1)]) /
          as_double(hi - n);
    }
  }
  table_power_ = &power;
}

// jstream: hot-path — the per-slot predictive deferral term: O(N) reads of
// the prebuilt windowed-minimum price tables on the EMA allocate path; the
// lazy table build runs once per (reset, PowerModel) pair, outside the
// steady state (pinned by tests/perf/test_zero_alloc_slot.cpp).
void PredictiveEmaScheduler::adjust_costs(const SlotContext& ctx, EmaSlotCosts& costs) {
  if (pred_config_.horizon_slots <= 0) return;
  require(ctx.power != nullptr, "predictive EMA needs the slot power model");
  const std::size_t n = ctx.user_count();
  require(forecast_dbm_.size() == n, "forecast/user count mismatch");
  require(ctx.soa.size() == n, "predictive EMA needs finalized SoA slot state");
  if (table_power_ != ctx.power) build_price_tables(*ctx.power);

  const SlotSoa& soa = ctx.soa;
  const double scale = config().v_weight * ctx.params.delta_kb;
  const double tau = ctx.params.tau_s;
  const std::size_t slot =
      std::min(checked_size(std::max<std::int64_t>(ctx.slot, 0)), table_slots_ - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!soa.needs_data(i) || soa.alloc_cap_units[i] <= 0) continue;
    const std::size_t at = i * table_slots_ + slot;
    const double p_now = soa.energy_per_kb[i];
    double adjust_per_kb = 0.0;
    // Deferral surcharge: the forecast promises a cheaper slot within H —
    // charge transmitting now the predicted saving, but only when the buffer
    // can ride out the wait (Eq. 3-5: never schedule a stall on a forecast);
    // a draining client keeps the plain EMA cost and the Eq. 16 queue still
    // forces service.
    const double save_per_kb = p_now - best_price_[at];
    if (save_per_kb > 0.0 &&
        soa.buffer_s[i] >=
            as_double(best_offset_[at]) * tau + pred_config_.safety_margin_s) {
      adjust_per_kb += pred_config_.defer_weight * save_per_kb;
    }
    // Crest credit: this slot beats pacing through the horizon — credit the
    // discount so the DP buys ahead here (see the header on why the
    // reference is the window mean, not the window minimum).
    const double crest_per_kb = p_now - mean_price_[at];
    if (crest_per_kb < 0.0) {
      adjust_per_kb += pred_config_.prefetch_weight * crest_per_kb;
    }
    costs.slope[i] += scale * adjust_per_kb;
  }
}

}  // namespace jstream
