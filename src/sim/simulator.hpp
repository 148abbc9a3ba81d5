// The slotted simulation engine: builds a scenario's endpoints, wires the
// gateway framework around a scheduler, and runs the per-slot loop while
// streaming outcomes into a MetricsCollector.
#pragma once

#include <memory>

#include "gateway/framework.hpp"
#include "radio/signal_trace.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace jstream {

class FaultSchedule;

/// Runs one scheduler over one scenario.
class Simulator {
 public:
  /// Takes ownership of the scheduler. `mode` is recorded on the framework
  /// for introspection; it does not alter behaviour. `trace` optionally
  /// supplies the precomputed channel substrate (campaign engine): when set
  /// it must cover the scenario (same population, >= max_slots slots) and
  /// the run reads signals from it instead of driving the per-endpoint
  /// SignalModels — bit-identical results either way.
  /// `faults` optionally supplies the scenario's fault schedule, drawn once
  /// and shared by a campaign's cells; it must be make_fault_schedule's
  /// result for this seed, population, horizon and fault config (each
  /// mismatch is rejected by name). When null a faulted run draws its own.
  Simulator(ScenarioConfig config, std::unique_ptr<Scheduler> scheduler,
            SchedulingMode mode = SchedulingMode::kBaseline,
            std::shared_ptr<const SignalTraceSet> trace = nullptr,
            std::shared_ptr<const FaultSchedule> faults = nullptr);

  /// Runs to completion: until max_slots, or (with early_stop) until every
  /// session has finished and the RRC tails have been flushed. `keep_series`
  /// controls whether per-slot series are retained in the result.
  [[nodiscard]] RunMetrics run(bool keep_series = true);

  [[nodiscard]] const ScenarioConfig& config() const noexcept { return config_; }

 private:
  ScenarioConfig config_;
  std::unique_ptr<Scheduler> scheduler_;
  SchedulingMode mode_;
  std::shared_ptr<const SignalTraceSet> trace_;
  std::shared_ptr<const FaultSchedule> faults_;
};

/// Convenience wrapper: build, run, and return metrics in one call.
[[nodiscard]] RunMetrics simulate(const ScenarioConfig& config,
                                  std::unique_ptr<Scheduler> scheduler,
                                  bool keep_series = true,
                                  std::shared_ptr<const SignalTraceSet> trace = nullptr);

}  // namespace jstream
