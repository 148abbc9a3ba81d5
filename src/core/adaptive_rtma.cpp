#include "core/adaptive_rtma.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

/// Rejects non-finite controller settings by name before anything reads
/// them: the inner RTMA is built from the target, and every +inf here passed
/// the range checks and ran silently.
const AdaptiveRtmaConfig& checked(const AdaptiveRtmaConfig& config) {
  require(std::isfinite(config.target_energy_mj), "adaptive RTMA target energy must be finite");
  require(std::isfinite(config.max_step), "adaptive RTMA max step must be finite");
  require(std::isfinite(config.min_budget_mj),
          "adaptive RTMA minimum budget must be finite");
  require(std::isfinite(config.max_budget_mj),
          "adaptive RTMA maximum budget must be finite");
  return config;
}

RtmaConfig initial_inner_config(const AdaptiveRtmaConfig& config) {
  RtmaConfig inner = config.rtma;
  if (!std::isfinite(inner.energy_budget_mj)) {
    inner.energy_budget_mj = config.target_energy_mj;
  }
  return inner;
}

}  // namespace

AdaptiveRtmaScheduler::AdaptiveRtmaScheduler(AdaptiveRtmaConfig config)
    : config_(checked(config)), inner_(initial_inner_config(config_)) {
  require(config_.target_energy_mj > 0.0, "target energy must be positive");
  require(config_.window_slots > 0, "window must be positive");
  require(config_.max_step > 1.0, "max step must exceed 1");
  require(config_.min_budget_mj > 0.0 &&
              config_.min_budget_mj < config_.max_budget_mj,
          "budget clamp range is invalid");
}

void AdaptiveRtmaScheduler::reset(std::size_t users) {
  inner_.reset(users);
  inner_.set_energy_budget(initial_inner_config(config_).energy_budget_mj);
  slots_in_window_ = 0;
  window_energy_mj_ = 0.0;
  window_tx_user_slots_ = 0;
  last_window_energy_mj_ = 0.0;
}

// jstream: hot-path — per-slot allocation over the inner RTMA.
void AdaptiveRtmaScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  inner_.allocate_into(ctx, out);

  // Self-estimate the transmission energy of this decision from the same
  // Eq. 3 model the transmitter applies. Phi is commensurable with the
  // per-SERVING-slot energy (see DefaultReference::trans_per_tx_slot_mj), so
  // idle users' tail energy stays out of the controller signal. The loop
  // reads the SoA lanes — `energy_per_kb` is the collector's cached
  // Definition 4 fit of the same signal, so no virtual model call per user.
  const SlotSoa& soa = ctx.soa;
  require(soa.size() == ctx.user_count(),
          "SlotContext::finalize() not called before allocate");
  for (std::size_t i = 0; i < ctx.user_count(); ++i) {
    if (out.units[i] > 0) {
      const double kb =
          std::min(ctx.params.units_to_kb(out.units[i]), soa.remaining_kb[i]);
      window_energy_mj_ += soa.energy_per_kb[i] * kb;
      ++window_tx_user_slots_;
    }
  }

  if (++slots_in_window_ >= config_.window_slots) {
    double step = config_.max_step;  // nobody served: the budget is too
                                     // strict — recover by stepping up
    if (window_tx_user_slots_ > 0) {
      const double measured =
          window_energy_mj_ / as_double(window_tx_user_slots_);
      last_window_energy_mj_ = measured;
      step = std::clamp(config_.target_energy_mj / measured, 1.0 / config_.max_step,
                        config_.max_step);
    }
    const double budget =
        std::clamp(inner_.config().energy_budget_mj * step, config_.min_budget_mj,
                   config_.max_budget_mj);
    inner_.set_energy_budget(budget);
    slots_in_window_ = 0;
    window_energy_mj_ = 0.0;
    window_tx_user_slots_ = 0;
  }
}

}  // namespace jstream
