#include "sim/experiment.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/forecast.hpp"

namespace jstream {

std::unique_ptr<Scheduler> make_scheduler_for_scenario(const std::string& name,
                                                       const SchedulerOptions& options,
                                                       const ScenarioConfig& scenario) {
  if (name == "ema-predictive") {
    const PredictiveEmaConfig& pred = options.ema_predictive;
    std::vector<std::vector<double>> forecast;
    if (pred.horizon_slots > 0) {
      forecast =
          make_signal_forecast(scenario, scenario.max_slots, scenario.forecast);
    } else {
      // Horizon 0 never reads the forecast; empty per-user rows keep the
      // population check satisfied without replaying the channel.
      forecast.assign(scenario.users, {});
    }
    return std::make_unique<PredictiveEmaScheduler>(options.ema, pred,
                                                    std::move(forecast));
  }
  return make_scheduler(name, options);
}

RunMetrics run_experiment(const ExperimentSpec& spec, bool keep_series,
                          std::shared_ptr<const SignalTraceSet> trace,
                          std::shared_ptr<const FaultSchedule> faults) {
  Simulator simulator(spec.scenario,
                      make_scheduler_for_scenario(spec.scheduler, spec.options,
                                                  spec.scenario),
                      SchedulingMode::kBaseline, std::move(trace), std::move(faults));
  return simulator.run(keep_series);
}

DefaultReference run_default_reference(const ScenarioConfig& scenario,
                                       TraceCache* cache) {
  const RunMetrics metrics =
      simulate(scenario, make_scheduler("default"), /*keep_series=*/false,
               cache != nullptr ? cache->get_or_generate(scenario) : nullptr);
  DefaultReference reference;
  reference.energy_per_user_slot_mj = metrics.avg_energy_per_user_slot_mj();
  reference.rebuffer_per_user_slot_s = metrics.avg_rebuffer_per_user_slot_s();
  reference.total_energy_mj = metrics.total_energy_mj();
  reference.total_rebuffer_s = metrics.total_rebuffer_s();
  double sum = 0.0;
  std::size_t counted = 0;
  for (const UserTotals& user : metrics.per_user) {
    if (user.tx_slots == 0) continue;
    sum += user.trans_mj / as_double(user.tx_slots);
    ++counted;
  }
  if (counted > 0) reference.trans_per_tx_slot_mj = sum / as_double(counted);
  return reference;
}

SchedulerOptions rtma_options_for_alpha(double alpha, const DefaultReference& reference) {
  require(alpha > 0.0, "alpha must be positive");
  SchedulerOptions options;
  options.rtma.energy_budget_mj = alpha * reference.trans_per_tx_slot_mj;
  return options;
}

double calibrate_v_for_rebuffer(const ScenarioConfig& scenario, double omega_s,
                                double v_min, double v_max, int iterations,
                                TraceCache* cache) {
  require(omega_s >= 0.0, "rebuffering bound must be non-negative");
  require(v_min > 0.0 && v_min < v_max, "V search range is invalid");
  require(iterations > 0, "need at least one iteration");

  const std::shared_ptr<const SignalTraceSet> trace =
      cache != nullptr ? cache->get_or_generate(scenario) : nullptr;
  const auto rebuffer_at = [&](double v) {
    SchedulerOptions options;
    options.ema.v_weight = v;
    const RunMetrics metrics = simulate(scenario, make_scheduler("ema-fast", options),
                                        /*keep_series=*/false, trace);
    return metrics.avg_rebuffer_per_user_slot_s();
  };

  // Rebuffering grows with V (more energy saving -> more deferral), but
  // bottoms out at an irreducible floor (cold-start stalls and the queue
  // warm-up) and stays nearly flat around it while the energy keeps falling.
  // A bound below that plateau is unreachable; relax the search target to
  // 30% above the floor so the calibration returns the knee of the curve —
  // the most energy-saving V whose rebuffering is still close to the bound.
  const double floor_s = rebuffer_at(v_min);
  const double target_s = std::max(omega_s, floor_s * 1.3);
  if (rebuffer_at(v_max) <= target_s) return v_max;
  double lo = std::log(v_min);  // feasible (== floor by construction)
  double hi = std::log(v_max);  // infeasible
  for (int iter = 0; iter < iterations; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (rebuffer_at(std::exp(mid)) <= target_s) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::exp(lo);
}

}  // namespace jstream
