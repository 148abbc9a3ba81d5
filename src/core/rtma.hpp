// RTMA — Rebuffering Time Minimization Algorithm (Algorithm 1, Section IV).
//
// Minimizes the average rebuffering time PC subject to the per-user-slot
// energy bound PE <= Phi (Eq. 10-11; the unconstrained problem is NP-hard via
// multi-choice knapsack). Per slot:
//
//   1. sort users by required data rate p_i ascending (cheapest smooth
//      playback first);
//   2. convert the energy budget Phi into a signal admission threshold phi
//      (Eq. 12) and skip users whose RSSI is below it;
//   3. round-robin passes: each eligible user receives up to its slot need
//      phi_need = ceil(tau * p_i / delta) per pass, until the base-station
//      capacity or every user's link bound is exhausted. Later passes let
//      users buffer ahead, keeping the bandwidth fully utilized.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gateway/scheduler.hpp"

namespace jstream {

/// RTMA configuration.
struct RtmaConfig {
  /// Phi: admissible energy per user-slot in mJ. Infinity disables the
  /// Eq. 12 signal filter (pure rebuffering minimization).
  double energy_budget_mj = std::numeric_limits<double>::infinity();

  /// P_tail used in Eq. 12. NaN selects the radio profile's DCH power.
  double tail_power_mw = std::numeric_limits<double>::quiet_NaN();

  /// Signal range for the threshold search; defaults match the paper sweep.
  double min_dbm = -110.0;
  double max_dbm = -50.0;
};

/// Algorithm 1 of the paper.
class RtmaScheduler final : public Scheduler {
 public:
  explicit RtmaScheduler(RtmaConfig config = {});

  [[nodiscard]] std::string name() const override { return "rtma"; }
  void reset(std::size_t users) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  /// The Eq. 12 threshold used in the most recent slot (for diagnostics;
  /// -infinity when the budget is unconstrained).
  [[nodiscard]] double last_threshold_dbm() const noexcept { return last_threshold_dbm_; }

  [[nodiscard]] const RtmaConfig& config() const noexcept { return config_; }

  /// Retunes the energy budget Phi (mJ per served user-slot); used by the
  /// adaptive controller. Must be positive.
  void set_energy_budget(double budget_mj);

 private:
  RtmaConfig config_;
  double last_threshold_dbm_ = -std::numeric_limits<double>::infinity();
  // Per-slot workspaces (sort order, per-user needs) reused across slots so
  // the steady-state path stays allocation-free.
  std::vector<std::size_t> order_;
  std::vector<std::int64_t> need_;
};

}  // namespace jstream
