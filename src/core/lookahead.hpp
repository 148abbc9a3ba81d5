// Lookahead scheduler: an oracle-assisted online policy emulating perfect
// short-term channel prediction (Proteus [24] forecasts seconds ahead;
// Bartendr [8] schedules around predicted signal peaks). It is not part of
// the paper's proposal — it serves as a comparison point quantifying what
// prediction would buy over RTMA/EMA's prediction-free designs.
//
// Policy per slot, users in most-urgent-buffer-first order:
//   * buffer below the safety level  -> transmit the catch-up need now;
//   * current per-KB price within `price_slack` of the cheapest price in the
//     prediction window -> prefetch toward the prefetch target;
//   * otherwise defer and wait for the cheaper predicted slot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gateway/scheduler.hpp"

namespace jstream {

/// Lookahead policy parameters. The defaults ride the paper scenario's
/// signal peaks: a horizon of half the sine period sees the next crest, and
/// the deep prefetch target buffers most of the inter-crest stretch so the
/// radio can sleep through it (tail cost amortized over hundreds of slots).
struct LookaheadConfig {
  std::int64_t horizon_slots = 300;  ///< prediction window length
  double safety_buffer_s = 4.0;      ///< always transmit below this level
  double prefetch_buffer_s = 240.0;  ///< fill toward this at good prices
  double price_slack = 1.35;         ///< "good" = within 35% of the window best
  double catchup_margin_s = 20.0;    ///< safety refill tops up to safety+margin
};

/// Prediction-assisted scheduler. Construct with forecasts from
/// make_signal_forecast over at least the simulation horizon.
class LookaheadScheduler final : public Scheduler {
 public:
  LookaheadScheduler(LookaheadConfig config,
                     std::vector<std::vector<double>> signal_forecast_dbm);

  [[nodiscard]] std::string name() const override { return "lookahead"; }
  void reset(std::size_t users) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  [[nodiscard]] const LookaheadConfig& config() const noexcept { return config_; }

 private:
  /// Cheapest predicted per-KB price for `user` in (slot, slot+horizon].
  [[nodiscard]] double best_future_price(const SlotContext& ctx, std::size_t user) const;

  LookaheadConfig config_;
  std::vector<std::vector<double>> forecast_dbm_;
  std::vector<std::size_t> order_;  ///< per-slot urgency order, reserved in reset()
};

}  // namespace jstream
