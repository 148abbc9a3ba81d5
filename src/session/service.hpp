// Online service mode: a long-running gateway serving dynamic session
// arrivals on the batch Framework/Simulator stack.
//
// A ServiceConfig wraps a batch ScenarioConfig ("the cell": population slots,
// channel, link, radio, capacity, faults) with an arrival process, an
// admission policy, and a steady-state measurement window. Per slot, the
// ServiceSimulator runs the event boundary first — release sessions that
// ended (completed + tail-drained, or fault-aborted), then offer the slot's
// arrivals to the admission controller and bind the admitted ones to recycled
// population slots — and then executes the ordinary Framework::run_slot over
// the fixed-size population. Quiescent slots (no events) run the unmodified
// zero-alloc slot path.
//
// With arrivals inactive (ArrivalKind::kNone) the service run IS the batch
// run: it delegates to the batch Simulator, bit for bit, and derives the
// session counters from its RunMetrics.
#pragma once

#include <cstdint>
#include <memory>

#include "gateway/framework.hpp"
#include "session/admission.hpp"
#include "session/arrival.hpp"
#include "session/session_manager.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace jstream {

/// Everything an online service run needs.
struct ServiceConfig {
  ScenarioConfig cell;       ///< population slots, channel, link, radio, faults
  ArrivalConfig arrivals;    ///< dynamic arrivals (kNone = batch semantics)
  AdmissionConfig admission; ///< accept-all or threshold policy
  /// Slots excluded from the steady-state averages (the fill transient).
  std::int64_t warmup_slots = 0;
  /// Keep one SessionRecord per ended measured session.
  bool keep_session_records = false;
};

/// Raises on invalid configs (delegates to the cell/arrival/admission
/// validators; warmup must fit the horizon).
void validate(const ServiceConfig& config);

/// TraceKey::session_fingerprint of this config: the arrival stream identity,
/// 0 iff arrivals are inactive (the run is the batch run and may share its
/// trace-cache entry). Admission policy does not join — it never touches the
/// channel substrate.
[[nodiscard]] std::uint64_t service_fingerprint(const ServiceConfig& config);

/// Both result layers of one service run.
struct ServiceResult {
  RunMetrics run;          ///< population-slot aggregates (batch metrics)
  ServiceMetrics service;  ///< session flow + steady-state averages
};

/// XXH64 over every field of both layers, session records included
/// (metrics_digest(run, service)): equal digests <=> bit-identical results.
[[nodiscard]] std::uint64_t service_digest(const ServiceResult& result);

/// Drives one service run; see the file comment for slot anatomy.
class ServiceSimulator {
 public:
  ServiceSimulator(ServiceConfig config, std::unique_ptr<Scheduler> scheduler,
                   SchedulingMode mode = SchedulingMode::kBaseline,
                   std::shared_ptr<const SignalTraceSet> trace = nullptr,
                   bool keep_series = false);

  /// Executes one slot: event boundary (releases, arrivals/admission), then
  /// Framework::run_slot and metric recording. Returns false once the
  /// horizon is exhausted. Only valid with active arrivals.
  bool step();

  /// Finalizes after stepping; the simulator may not be reused.
  [[nodiscard]] ServiceResult finish();

  /// Runs to completion: the stepping loop with active arrivals, the batch
  /// Simulator (bit-identical to simulate()) otherwise.
  [[nodiscard]] ServiceResult run();

  [[nodiscard]] std::int64_t slot() const noexcept { return slot_; }
  [[nodiscard]] std::size_t active_sessions() const noexcept;
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] ServiceResult run_zero_arrival();
  void admit_arrivals(std::int64_t slot, std::int64_t count);
  [[nodiscard]] double mean_bound_queue_s() const noexcept;

  ServiceConfig config_;
  SchedulingMode mode_;
  std::shared_ptr<const SignalTraceSet> trace_;
  bool keep_series_;

  // Batch delegation path keeps the scheduler until run().
  std::unique_ptr<Scheduler> batch_scheduler_;

  // Arrival-mode state (null/empty when arrivals are inactive).
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<Framework> framework_;
  std::unique_ptr<BaseStation> bs_;
  std::unique_ptr<FaultInjector> fault_injector_;
  const FaultSchedule* fault_schedule_ = nullptr;
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<MetricsCollector> metrics_;
  std::unique_ptr<ServiceMetricsCollector> service_metrics_;
  std::int64_t slot_ = 0;
  std::int64_t arrival_index_ = 0;
};

/// Convenience wrapper mirroring simulate(): one service run end to end.
[[nodiscard]] ServiceResult simulate_service(
    const ServiceConfig& config, std::unique_ptr<Scheduler> scheduler,
    bool keep_series = false, std::shared_ptr<const SignalTraceSet> trace = nullptr);

}  // namespace jstream
