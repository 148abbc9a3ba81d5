#include "session/service.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "telemetry/registry.hpp"

namespace jstream {

namespace {

struct SessionTelemetry {
  telemetry::Counter& runs;
  telemetry::Counter& offered;
  telemetry::Counter& accepted;
  telemetry::Counter& rejected;
  telemetry::Counter& blocked;

  static SessionTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static SessionTelemetry probes{registry.counter("session.runs"),
                                   registry.counter("admission.offered"),
                                   registry.counter("admission.accepted"),
                                   registry.counter("admission.rejected"),
                                   registry.counter("admission.blocked")};
    return probes;
  }
};

std::int64_t tail_flush_slots(const ScenarioConfig& cell) {
  return ceil_to_count(cell.radio.tail_duration_s() / cell.slot.tau_s) + 1;
}

}  // namespace

void validate(const ServiceConfig& config) {
  validate(config.cell);
  validate(config.arrivals);
  validate(config.admission);
  require(config.warmup_slots >= 0, "warmup must be non-negative");
  require(config.warmup_slots < config.cell.max_slots,
          "warmup must fit inside the horizon");
}

std::uint64_t service_fingerprint(const ServiceConfig& config) {
  return arrival_fingerprint(config.arrivals);
}

std::uint64_t service_digest(const ServiceResult& result) {
  return metrics_digest(result.run, result.service);
}

ServiceSimulator::ServiceSimulator(ServiceConfig config,
                                   std::unique_ptr<Scheduler> scheduler,
                                   SchedulingMode mode,
                                   std::shared_ptr<const SignalTraceSet> trace,
                                   bool keep_series)
    : config_(std::move(config)),
      mode_(mode),
      trace_(std::move(trace)),
      keep_series_(keep_series) {
  validate(config_);
  require(scheduler != nullptr, "service simulator needs a scheduler");
  const ScenarioConfig& cell = config_.cell;
  if (!config_.arrivals.active()) {
    // Zero-arrival service = the batch run; the Simulator built in run()
    // performs its own trace checks.
    batch_scheduler_ = std::move(scheduler);
    return;
  }
  if (trace_ != nullptr) {
    require(trace_->users() == cell.users, "trace population mismatch");
    require(trace_->slots() >= cell.max_slots, "trace shorter than the horizon");
  }

  manager_ = std::make_unique<SessionManager>(cell, tail_flush_slots(cell));
  if (trace_ != nullptr) {
    std::span<UserEndpoint> endpoints = manager_->endpoints();
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      endpoints[i].attach_trace(trace_.get(), i);
    }
  }
  bs_ = std::make_unique<BaseStation>(capacity_profile(cell));
  const double backhaul = cell.backhaul_kbps > 0.0
                              ? cell.backhaul_kbps
                              : std::numeric_limits<double>::infinity();
  framework_ = std::make_unique<Framework>(
      InfoCollector(cell.slot, cell.link, cell.radio), std::move(scheduler), mode_,
      cell.users, backhaul);
  if (cell.faults.any()) {
    fault_injector_ = std::make_unique<FaultInjector>(
        std::make_shared<const FaultSchedule>(make_fault_schedule(cell)));
    fault_schedule_ = &fault_injector_->schedule();
    framework_->attach_fault_hook(fault_injector_.get());
  }
  arrivals_ = make_arrival_process(config_.arrivals, cell.seed);
  admission_ = make_admission_controller(config_.admission);
  metrics_ = std::make_unique<MetricsCollector>(cell.users, keep_series_);
  service_metrics_ = std::make_unique<ServiceMetricsCollector>(
      cell.users, config_.warmup_slots, config_.keep_session_records);
}

std::size_t ServiceSimulator::active_sessions() const noexcept {
  return manager_ != nullptr ? manager_->active_sessions() : 0;
}

double ServiceSimulator::mean_bound_queue_s() const noexcept {
  const std::span<const double> queues = framework_->scheduler().virtual_queues();
  if (queues.empty() || manager_->active_sessions() == 0) return 0.0;
  double sum = 0.0;
  std::size_t bound = 0;
  for (std::size_t i = 0; i < queues.size(); ++i) {
    if (!manager_->occupied(i)) continue;
    sum += queues[i];
    ++bound;
  }
  return bound == 0 ? 0.0 : sum / as_double(bound);
}

void ServiceSimulator::admit_arrivals(std::int64_t slot, std::int64_t count) {
  // One backlog probe per event boundary — it scans the whole population.
  const double mean_queue = mean_bound_queue_s();
  // Admission outcomes are summed here and added to telemetry once.
  std::int64_t rejected = 0;
  std::int64_t blocked = 0;
  std::int64_t accepted = 0;
  for (std::int64_t a = 0; a < count; ++a) {
    service_metrics_->on_offered();
    // The content of arrival k is drawn unconditionally — before admission,
    // before the free-slot check — so policy or capacity changes never shift
    // the content stream of later sessions (arrival purity contract).
    const std::int64_t k = arrival_index_++;
    VideoSession session = draw_session_content(config_.cell, config_.arrivals.salt, k);

    AdmissionSnapshot snapshot;
    snapshot.slot = slot;
    snapshot.active_sessions = manager_->active_sessions();
    snapshot.capacity_slots = manager_->capacity();
    snapshot.cell_capacity_kbps = bs_->capacity_kbps(slot);
    snapshot.mean_bitrate_kbps = manager_->mean_active_bitrate_kbps();
    snapshot.mean_virtual_queue_s = mean_queue;
    snapshot.offered_bitrate_kbps = session.bitrate_at_time(0.0);
    if (!admission_->admit(snapshot)) {
      service_metrics_->on_rejected();
      ++rejected;
      continue;
    }
    if (!manager_->has_free_slot()) {
      service_metrics_->on_blocked();
      ++blocked;
      continue;
    }
    const std::size_t id = manager_->peek_free();
    std::int64_t departure = UserEndpoint::kNeverSlot;
    if (fault_schedule_ != nullptr) {
      // The cell's departure draw belongs to the population slot; it aborts
      // whichever session occupies the slot when it fires. Draws already in
      // the past never fire again.
      const std::int64_t drawn = fault_schedule_->departure_slot(id);
      if (drawn > slot) departure = drawn;
    }
    manager_->bind(slot, std::move(session), departure);
    framework_->scheduler().reset_user(id);
    service_metrics_->on_session_start(id, slot, k);
    ++accepted;
  }
  if (count > 0 && telemetry::enabled()) {
    auto& probes = SessionTelemetry::instance();
    probes.offered.add(count);
    if (rejected > 0) probes.rejected.add(rejected);
    if (blocked > 0) probes.blocked.add(blocked);
    if (accepted > 0) probes.accepted.add(accepted);
  }
}

bool ServiceSimulator::step() {
  require(manager_ != nullptr,
          "step() requires active arrivals (zero-arrival configs run the batch path)");
  if (slot_ >= config_.cell.max_slots) return false;
  const std::int64_t slot = slot_;

  // Event boundary: releases first (freed slots are immediately reusable by
  // this boundary's arrivals), then arrivals.
  manager_->scan_releases(slot, [&](std::size_t id, std::int64_t end_slot,
                                    bool completed) {
    service_metrics_->on_session_end(id, end_slot,
                                     manager_->endpoints()[id].delivered_kb,
                                     completed);
  });
  const std::int64_t count = arrivals_->arrivals_at(slot);
  if (count > 0) admit_arrivals(slot, count);

  // The unmodified batch slot path over the fixed-size population.
  const SlotOutcome& outcome = framework_->run_slot(slot, manager_->endpoints(), *bs_);
  metrics_->record_slot(framework_->last_context(), outcome);
  service_metrics_->record_slot(slot, manager_->active_sessions(), outcome);

  ++slot_;
  return slot_ < config_.cell.max_slots;
}

ServiceResult ServiceSimulator::finish() {
  require(manager_ != nullptr, "finish() follows step(); batch configs use run()");
  ServiceResult result;
  result.run = metrics_->finish();
  result.service = service_metrics_->finish(manager_->active_sessions());
  return result;
}

ServiceResult ServiceSimulator::run() {
  if (manager_ == nullptr) return run_zero_arrival();
  SessionTelemetry::instance().runs.add();
  while (step()) {
  }
  return finish();
}

ServiceResult ServiceSimulator::run_zero_arrival() {
  require(batch_scheduler_ != nullptr, "service simulator already ran");
  SessionTelemetry::instance().runs.add();
  const ScenarioConfig& cell = config_.cell;
  // One draw serves both the batch run's faults and the abort slots below.
  std::shared_ptr<const FaultSchedule> faults;
  if (cell.faults.any()) {
    faults = std::make_shared<const FaultSchedule>(make_fault_schedule(cell));
  }
  Simulator simulator(cell, std::move(batch_scheduler_), mode_, trace_, faults);
  ServiceResult result;
  result.run = simulator.run(keep_series_);

  // Derive the session view from the batch run: every user is one offered
  // and admitted session; completions come from the per-user totals, aborts
  // from the fault schedule the run used. Steady-state averages span the
  // full horizon — a batch run has no fill transient to exclude.
  const RunMetrics& run = result.run;
  ServiceMetrics& s = result.service;
  s.slots_run = run.slots_run;
  s.warmup_slots = 0;
  s.capacity_slots = cell.users;
  s.offered = checked_index(cell.users);
  s.admitted = s.offered;
  s.measured_slots = run.slots_run;

  for (std::size_t i = 0; i < run.per_user.size(); ++i) {
    const UserTotals& user = run.per_user[i];
    const std::int64_t abort_slot =
        faults != nullptr ? faults->departure_slot(i) : UserEndpoint::kNeverSlot;
    const bool aborted = abort_slot < run.slots_run && !user.playback_finished;
    s.concurrency_sum += as_double(user.session_slots);
    s.active_user_slots += user.session_slots;
    s.rebuffer_sum_s += user.rebuffer_s;
    s.energy_sum_mj += user.energy_mj();
    if (user.playback_finished || aborted) {
      ++(user.playback_finished ? s.completed : s.aborted);
      ++s.sessions_measured;
      s.session_rebuffer_sum_s += user.rebuffer_s;
      s.session_energy_sum_mj += user.energy_mj();
      s.session_delivered_sum_kb += user.delivered_kb;
      s.session_length_slots_sum += user.session_slots;
    } else {
      ++s.in_flight_at_end;
    }
  }
  s.peak_concurrency = cell.users;
  return result;
}

ServiceResult simulate_service(const ServiceConfig& config,
                               std::unique_ptr<Scheduler> scheduler,
                               bool keep_series,
                               std::shared_ptr<const SignalTraceSet> trace) {
  ServiceSimulator simulator(config, std::move(scheduler), SchedulingMode::kBaseline,
                             std::move(trace), keep_series);
  return simulator.run();
}

}  // namespace jstream
