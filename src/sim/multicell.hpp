// Multi-cell deployments. The paper's gateway "manages the resources of each
// BS independently" (Section III-A); a deployment is therefore a set of
// per-cell scenarios, each running its own Framework instance, evaluated
// concurrently. Results are reported per cell plus aggregated across the
// deployment.
#pragma once

#include <string>
#include <vector>

#include "baselines/factory.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace jstream {

/// One gateway deployment: a scenario per base station.
struct MultiCellConfig {
  std::vector<ScenarioConfig> cells;

  /// Convenience: `cells` identical copies of `base` with per-cell seeds
  /// (base.seed + cell index) so populations differ across cells.
  [[nodiscard]] static MultiCellConfig uniform(const ScenarioConfig& base,
                                               std::size_t cell_count);
};

/// Per-deployment results.
struct MultiCellResult {
  std::vector<RunMetrics> per_cell;

  [[nodiscard]] std::size_t total_users() const noexcept;
  [[nodiscard]] double total_energy_mj() const noexcept;
  [[nodiscard]] double total_rebuffer_s() const noexcept;

  /// Deployment-wide PE analogue: user-weighted mean of the per-cell
  /// per-user-slot energies.
  [[nodiscard]] double avg_energy_per_user_slot_mj() const noexcept;

  /// Deployment-wide PC analogue (same weighting).
  [[nodiscard]] double avg_rebuffer_per_user_slot_s() const noexcept;
};

/// Runs `scheduler_name` (with `options`) in every cell, one independent
/// Framework per base station, as one run_campaign grid on `threads` workers
/// (0 = hardware concurrency). Validates every cell before any runs.
/// Deterministic per cell seeds.
[[nodiscard]] MultiCellResult simulate_multicell(const MultiCellConfig& config,
                                                 const std::string& scheduler_name,
                                                 const SchedulerOptions& options = {},
                                                 std::size_t threads = 0);

}  // namespace jstream
