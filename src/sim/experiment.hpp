// Experiment harness: named (scenario, scheduler) runs, plus the reference
// helpers the paper's evaluation uses — RTMA's energy budget is set to
// Phi = alpha * E_default (Section VI-A) and EMA's rebuffering bound to
// Omega = beta * R_default (Section VI-B), where E_default / R_default come
// from a reference run of the default strategy. Because EMA exposes the
// Lyapunov weight V rather than Omega directly, `calibrate_v_for_rebuffer`
// searches for the largest V (most energy saving) whose rebuffering still
// meets the bound — this is the tuning knob the paper describes as "beta can
// be tuned".
#pragma once

#include <string>

#include "baselines/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_cache.hpp"

namespace jstream {

/// One experiment: a scenario run under a named scheduler.
struct ExperimentSpec {
  std::string label;       ///< series name in reports
  std::string scheduler;   ///< factory name
  ScenarioConfig scenario;
  SchedulerOptions options;
};

/// Scenario-aware scheduler factory: resolves the names whose construction
/// needs the scenario itself — "ema-predictive" derives its signal forecast
/// from the scenario seed through the scenario's forecast error spec
/// (make_signal_forecast, sim/forecast.hpp) — and delegates every other name
/// to make_scheduler. Campaign cells, golden runs, and run_experiment all
/// route through this, so predictive series drop into any grid.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler_for_scenario(
    const std::string& name, const SchedulerOptions& options,
    const ScenarioConfig& scenario);

/// Runs one spec and returns its metrics. When `trace` is set the run reads
/// the channel from the precomputed substrate, and when `faults` is set it
/// applies that shared fault schedule instead of drawing its own (see
/// Simulator); results are bit-identical either way.
[[nodiscard]] RunMetrics run_experiment(
    const ExperimentSpec& spec, bool keep_series = true,
    std::shared_ptr<const SignalTraceSet> trace = nullptr,
    std::shared_ptr<const FaultSchedule> faults = nullptr);

/// Reference quantities from a default-strategy run over `scenario`.
struct DefaultReference {
  double energy_per_user_slot_mj = 0.0;  ///< E_default (PE analogue)
  double rebuffer_per_user_slot_s = 0.0; ///< R_default (PC analogue)
  double total_energy_mj = 0.0;
  double total_rebuffer_s = 0.0;

  /// Mean transmission energy of a slot in which the default actually served
  /// a user. This is the quantity Eq. 12's Phi is commensurable with (the
  /// estimated cost of serving one user for one slot); the session-slot
  /// average above is diluted by idle slots and sits far below Eq. 12's
  /// range, so RTMA's alpha is applied to this serving-slot energy.
  double trans_per_tx_slot_mj = 0.0;
};

/// Runs the default scheduler over `scenario` and extracts the references.
/// With `cache` set, the reference run pulls its channel trace from the cache
/// so later campaign runs over the same scenario reuse the entry.
[[nodiscard]] DefaultReference run_default_reference(const ScenarioConfig& scenario,
                                                     TraceCache* cache = nullptr);

/// RTMA options with Phi = alpha * E_default (per user-slot, mJ).
[[nodiscard]] SchedulerOptions rtma_options_for_alpha(double alpha,
                                                      const DefaultReference& reference);

/// Finds the largest Lyapunov weight V whose average rebuffering stays within
/// `omega_s` (per user-slot seconds) on `scenario`, by log-space bisection
/// over `iterations` simulation runs between v_min and v_max. The probe runs
/// use the ema-fast solver (same queue dynamics, O(N log N) per slot) so
/// calibration stays cheap; the calibrated V is then used with either solver.
/// With `cache` set, every probe simulation reuses one cached channel trace
/// instead of regenerating it per probe (the bisection runs ~a dozen sims
/// over the identical scenario).
[[nodiscard]] double calibrate_v_for_rebuffer(const ScenarioConfig& scenario,
                                              double omega_s, double v_min = 1e-4,
                                              double v_max = 10.0, int iterations = 10,
                                              TraceCache* cache = nullptr);

}  // namespace jstream
