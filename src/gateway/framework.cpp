#include "gateway/framework.hpp"

#include <vector>

#include "common/error.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scoped_timer.hpp"
#include "common/units.hpp"

namespace jstream {

namespace {

// Resolved once; references stay valid for the process lifetime, so the
// per-slot path never touches the registry lock.
struct FrameworkTelemetry {
  telemetry::Counter& slots;
  telemetry::Counter& eq1_link_clips;
  telemetry::Counter& eq2_capacity_clips;
  telemetry::Histogram& decision_latency_us;
  telemetry::SlotTracer& tracer;

  static FrameworkTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static FrameworkTelemetry probes{
        registry.counter("gateway.slots"),
        registry.counter("constraint.eq1.link_cap_clips"),
        registry.counter("constraint.eq2.capacity_clips"),
        registry.histogram("scheduler.decision_latency_us"),
        registry.tracer()};
    return probes;
  }
};

}  // namespace

Framework::Framework(InfoCollector collector, std::unique_ptr<Scheduler> scheduler,
                     SchedulingMode mode, std::size_t users, double backhaul_kbps)
    : collector_(std::move(collector)),
      scheduler_(std::move(scheduler)),
      mode_(mode),
      receiver_(users, backhaul_kbps) {
  require(scheduler_ != nullptr, "framework needs a scheduler");
  scheduler_->reset(users);
  validator_.reset(scheduler_->name(), users);
}

// jstream: hot-path — steady-state slot entry; everything reachable from
// here in this TU must stay allocation-free (tests/perf/test_zero_alloc_slot).
const SlotOutcome& Framework::run_slot(std::int64_t slot,
                                       std::span<UserEndpoint> endpoints,
                                       const BaseStation& bs) {
  require(endpoints.size() == receiver_.user_count(),
          "endpoint count differs from receiver flows");
  auto& probes = FrameworkTelemetry::instance();
  probes.slots.add();

  receiver_.begin_slot(collector_.params().tau_s);
  for (auto& endpoint : endpoints) endpoint.buffer.begin_slot();

  collector_.collect_into(slot, endpoints, bs, last_ctx_);
  // Degraded-cell seam: the scheduler decides — and is validated — against
  // the perturbed view; truth is restored (and stale-view grants clipped)
  // before the transmitter executes and the outcome is checked.
  if (fault_hook_ != nullptr) {
    fault_hook_->degrade_context(last_ctx_);
    // The hook mutates the AoS records in place; refresh the SoA mirror so
    // schedulers stream the degraded view, not the truthful one.
    last_ctx_.finalize();
  }
  {
    telemetry::ScopedTimer timer(probes.decision_latency_us);
    scheduler_->allocate_into(last_ctx_, last_alloc_);
  }

  // Latched once per slot: the validator sees either both hooks or neither,
  // so its shadow state never observes half a slot.
  const bool validate = analysis::validation_enabled();
  if (validate) {
    validator_.check_allocation(last_ctx_, last_alloc_, scheduler_->virtual_queues());
  }

  if (fault_hook_ != nullptr) fault_hook_->reconcile_allocation(last_ctx_, last_alloc_);

  // Observation-only accounting of which constraint bound each grant:
  // constraint (1) when a user's grant saturated its per-user cap while the
  // session still wanted more, constraint (2) when the slot's total grant
  // exhausted the base-station capacity.
  if (telemetry::enabled()) {
    std::int64_t granted_total = 0;
    for (std::size_t i = 0; i < last_ctx_.user_count(); ++i) {
      const UserSlotInfo& user = last_ctx_.users[i];
      const std::int64_t granted = last_alloc_.units[i];
      granted_total += granted;
      if (granted > 0 && granted == user.alloc_cap_units &&
          last_ctx_.params.need_units(user.bitrate_kbps) > user.alloc_cap_units) {
        probes.eq1_link_clips.add();
        probes.tracer.record(slot, checked_i32(i),
                             telemetry::TraceEventKind::kClipLink,
                             as_double(granted));
      }
    }
    if (granted_total > 0 && granted_total == last_ctx_.capacity_units) {
      probes.eq2_capacity_clips.add();
      probes.tracer.record(slot, -1, telemetry::TraceEventKind::kClipCapacity,
                           as_double(granted_total));
    }
  }

  const bool trace_rrc = telemetry::enabled();
  if (trace_rrc || validate) {
    rrc_before_.resize(endpoints.size());
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      rrc_before_[i] = endpoints[i].rrc.state();
    }
  }

  transmitter_.apply_into(last_ctx_, last_alloc_, endpoints, receiver_, last_outcome_);

  if (validate) {
    validator_.check_outcome(last_ctx_, last_alloc_, last_outcome_, endpoints,
                             rrc_before_);
  }

  if (trace_rrc) {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      const RrcState after = endpoints[i].rrc.state();
      if (after != rrc_before_[i]) {
        probes.tracer.record(slot, checked_i32(i),
                             telemetry::TraceEventKind::kRrcTransition,
                             as_double(static_cast<int>(after)));
      }
    }
  }

  for (auto& endpoint : endpoints) endpoint.buffer.end_slot();
  return last_outcome_;
}

}  // namespace jstream
