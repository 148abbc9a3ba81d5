#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/base_station.hpp"
#include "sim/fault.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scoped_timer.hpp"

namespace jstream {

namespace {

struct SimulatorTelemetry {
  telemetry::Counter& runs;
  telemetry::Counter& slots_total;
  telemetry::Histogram& run_latency_us;

  static SimulatorTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static SimulatorTelemetry probes{registry.counter("sim.runs"),
                                     registry.counter("sim.slots_total"),
                                     registry.histogram("sim.run_latency_us")};
    return probes;
  }
};

}  // namespace

Simulator::Simulator(ScenarioConfig config, std::unique_ptr<Scheduler> scheduler,
                     SchedulingMode mode, std::shared_ptr<const SignalTraceSet> trace,
                     std::shared_ptr<const FaultSchedule> faults)
    : config_(std::move(config)),
      scheduler_(std::move(scheduler)),
      mode_(mode),
      trace_(std::move(trace)),
      faults_(std::move(faults)) {
  validate(config_);
  require(scheduler_ != nullptr, "simulator needs a scheduler");
  if (trace_ != nullptr) {
    require(trace_->users() == config_.users, "trace population mismatch");
    require(trace_->slots() >= config_.max_slots, "trace shorter than the horizon");
  }
  if (faults_ != nullptr) {
    require(faults_->users() == config_.users, "fault schedule population mismatch");
    require(faults_->horizon() == config_.max_slots, "fault schedule horizon mismatch");
    require(faults_->seed() == config_.seed, "fault schedule was drawn for another seed");
    require(faults_->fingerprint() == fault_fingerprint(config_.faults),
            "fault schedule was drawn for another fault config");
  }
}

RunMetrics Simulator::run(bool keep_series) {
  std::vector<UserEndpoint> endpoints = build_endpoints(config_);
  const std::shared_ptr<const SignalTraceSet> channels =
      attach_channels(endpoints, trace_, config_.max_slots);
  const BaseStation bs(capacity_profile(config_));
  InfoCollector collector(config_.slot, config_.link, config_.radio);
  const double backhaul = config_.backhaul_kbps > 0.0
                              ? config_.backhaul_kbps
                              : std::numeric_limits<double>::infinity();
  Framework framework(std::move(collector), std::move(scheduler_), mode_,
                      config_.users, backhaul);
  // Degraded-cell faults: the schedule is a pure function of the config, so
  // cached-trace and live runs, and shared and own schedules, fault
  // identically; an inactive config attaches nothing and leaves the slot
  // path byte-for-byte unfaulted.
  std::unique_ptr<FaultInjector> fault_injector;
  if (config_.faults.any()) {
    fault_injector = std::make_unique<FaultInjector>(
        faults_ != nullptr
            ? faults_
            : std::make_shared<const FaultSchedule>(make_fault_schedule(config_)));
    // Mid-stream aborts ride the session-departure path: the schedule's drawn
    // slots are stamped on the endpoints, the collector raises the departed
    // flag, and the injector only does its fault-local bookkeeping.
    const FaultSchedule& schedule = fault_injector->schedule();
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      endpoints[i].depart_at(schedule.departure_slot(i));
    }
    framework.attach_fault_hook(fault_injector.get());
  }
  MetricsCollector metrics(config_.users, keep_series);

  // After the last session ends, run a few more slots so outstanding RRC
  // tails are charged (Eq. 4 energy does not vanish when content runs out).
  const std::int64_t tail_flush_slots =
      ceil_to_count(config_.radio.tail_duration_s() / config_.slot.tau_s) + 1;
  std::int64_t idle_streak = 0;

  auto& probes = SimulatorTelemetry::instance();
  probes.runs.add();
  std::int64_t slots_run = 0;
  {
    telemetry::ScopedTimer timer(probes.run_latency_us);
    for (std::int64_t slot = 0; slot < config_.max_slots; ++slot) {
      const SlotOutcome& outcome = framework.run_slot(slot, endpoints, bs);
      metrics.record_slot(framework.last_context(), outcome);
      ++slots_run;

      if (!config_.early_stop) continue;
      // A departed user never drains its remaining content, so for early-stop
      // purposes it counts as done the moment it aborts.
      bool all_done = true;
      for (std::size_t i = 0; i < endpoints.size(); ++i) {
        if (endpoints[i].departed(slot)) continue;
        if (endpoints[i].active()) {
          all_done = false;
          break;
        }
      }
      idle_streak = all_done ? idle_streak + 1 : 0;
      if (idle_streak >= tail_flush_slots) break;
    }
  }
  probes.slots_total.add(slots_run);
  return metrics.finish();
}

RunMetrics simulate(const ScenarioConfig& config, std::unique_ptr<Scheduler> scheduler,
                    bool keep_series, std::shared_ptr<const SignalTraceSet> trace) {
  Simulator simulator(config, std::move(scheduler), SchedulingMode::kBaseline,
                      std::move(trace));
  return simulator.run(keep_series);
}

}  // namespace jstream
