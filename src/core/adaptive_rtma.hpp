// Adaptive RTMA: a feedback controller around Algorithm 1.
//
// Plain RTMA needs the operator to pick the energy budget Phi up front
// (Section VI anchors it on a reference run of the default strategy). This
// extension retunes Phi online instead: it estimates the energy its own
// allocations cost (it knows the Eq. 3/4 models exactly), compares the
// serving-slot average against a target every window, and scales the budget
// multiplicatively. Useful when the channel mix drifts (capacity waves, churn)
// and a one-shot calibration would go stale.
#pragma once

#include <string>

#include "core/rtma.hpp"

namespace jstream {

/// Controller configuration.
struct AdaptiveRtmaConfig {
  /// Target energy per served user-slot (mJ) — what alpha * E_default anchors
  /// in the static scheme.
  double target_energy_mj = 1000.0;

  /// Slots between budget adjustments.
  std::int64_t window_slots = 50;

  /// Per-window multiplicative step bound: budget *= clamp(target/measured,
  /// 1/max_step, max_step).
  double max_step = 1.5;

  /// Budget clamp range, mJ (keeps Eq. 12 solvable).
  double min_budget_mj = 100.0;
  double max_budget_mj = 5000.0;

  /// Inner RTMA settings (its energy_budget_mj is the controller's initial
  /// budget when finite, else target_energy_mj).
  RtmaConfig rtma;
};

/// RTMA with an online energy-budget controller.
class AdaptiveRtmaScheduler final : public Scheduler {
 public:
  explicit AdaptiveRtmaScheduler(AdaptiveRtmaConfig config = {});

  [[nodiscard]] std::string name() const override { return "rtma-adaptive"; }
  void reset(std::size_t users) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  /// Current budget Phi (mJ per served user-slot).
  [[nodiscard]] double current_budget_mj() const noexcept {
    return inner_.config().energy_budget_mj;
  }

  /// Serving-slot energy measured over the last completed window (mJ);
  /// zero before the first window completes.
  [[nodiscard]] double last_window_energy_mj() const noexcept {
    return last_window_energy_mj_;
  }

  [[nodiscard]] const AdaptiveRtmaConfig& config() const noexcept { return config_; }

 private:
  AdaptiveRtmaConfig config_;
  RtmaScheduler inner_;
  std::int64_t slots_in_window_ = 0;
  double window_energy_mj_ = 0.0;
  std::int64_t window_tx_user_slots_ = 0;
  double last_window_energy_mj_ = 0.0;
};

}  // namespace jstream
