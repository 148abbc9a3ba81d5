// ServiceSimulator end to end: flow conservation, determinism, warmup
// accounting, batch delegation with arrivals off, and admission effects.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/invariant_checker.hpp"
#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "radio/signal_trace.hpp"
#include "session/service.hpp"
#include "sim/trace_cache.hpp"
#include "telemetry/registry.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

ScenarioConfig service_cell(std::size_t users = 6, std::uint64_t seed = 321) {
  ScenarioConfig cell = paper_scenario(users, seed);
  cell.max_slots = 250;
  cell.video_min_mb = 2.0;
  cell.video_max_mb = 4.0;
  return cell;
}

/// service_digest of ZeroArrivalFaultedRunDrawsItsScheduleOnce's run, as the
/// two-draw implementation (schedule drawn again for the abort slots) left it.
constexpr std::uint64_t kZeroArrivalFaultedDigest = 0xc47a6a5defb7a5d9ULL;

ServiceConfig poisson_service(double rate, std::int64_t warmup = 0) {
  ServiceConfig config;
  config.cell = service_cell();
  config.arrivals.kind = ArrivalKind::kPoisson;
  config.arrivals.rate_per_slot = rate;
  config.warmup_slots = warmup;
  return config;
}

TEST(ServiceSimulator, SessionFlowIsConserved) {
  const ServiceConfig config = poisson_service(0.15);
  const ServiceResult result = simulate_service(config, make_scheduler("default"));
  const ServiceMetrics& m = result.service;

  // Offered arrivals match the pure arrival process, independently queried.
  const auto arrivals = make_arrival_process(config.arrivals, config.cell.seed);
  std::int64_t expected_offered = 0;
  for (std::int64_t slot = 0; slot < config.cell.max_slots; ++slot) {
    expected_offered += arrivals->arrivals_at(slot);
  }
  EXPECT_EQ(m.offered, expected_offered);
  EXPECT_GT(m.offered, 0);

  // Every offer is admitted, rejected, or blocked; every admission ends or
  // is still in flight at the horizon.
  EXPECT_EQ(m.admitted + m.rejected + m.blocked, m.offered);
  EXPECT_EQ(m.completed + m.aborted + m.in_flight_at_end, m.admitted);
  EXPECT_GT(m.completed, 0);
  EXPECT_EQ(m.slots_run, config.cell.max_slots);
  EXPECT_LE(m.peak_concurrency, m.capacity_slots);
}

TEST(ServiceSimulator, RunsAreDeterministic) {
  const ServiceConfig config = poisson_service(0.2, /*warmup=*/50);
  const ServiceResult a = simulate_service(config, make_scheduler("default"));
  const ServiceResult b = simulate_service(config, make_scheduler("default"));
  EXPECT_EQ(a.service.offered, b.service.offered);
  EXPECT_EQ(a.service.admitted, b.service.admitted);
  EXPECT_EQ(a.service.completed, b.service.completed);
  EXPECT_EQ(a.service.aborted, b.service.aborted);
  EXPECT_EQ(a.service.concurrency_sum, b.service.concurrency_sum);
  EXPECT_EQ(a.service.rebuffer_sum_s, b.service.rebuffer_sum_s);
  EXPECT_EQ(a.service.energy_sum_mj, b.service.energy_sum_mj);
  EXPECT_EQ(a.service.session_rebuffer_sum_s, b.service.session_rebuffer_sum_s);
  EXPECT_EQ(a.run.total_energy_mj(), b.run.total_energy_mj());
  EXPECT_EQ(a.run.total_rebuffer_s(), b.run.total_rebuffer_s());
}

TEST(ServiceSimulator, WarmupWindowIsExcludedFromSteadyStateAverages) {
  const std::int64_t warmup = 100;
  const ServiceConfig config = poisson_service(0.2, warmup);
  const ServiceResult result = simulate_service(config, make_scheduler("default"));
  EXPECT_EQ(result.service.measured_slots, config.cell.max_slots - warmup);

  // The same run with no warmup measures strictly more user-slots (the fill
  // transient now counts).
  const ServiceConfig no_warmup = poisson_service(0.2, 0);
  const ServiceResult all = simulate_service(no_warmup, make_scheduler("default"));
  EXPECT_EQ(all.service.measured_slots, config.cell.max_slots);
  EXPECT_GT(all.service.active_user_slots, result.service.active_user_slots);
  // The flow counters are warmup-independent.
  EXPECT_EQ(all.service.offered, result.service.offered);
  EXPECT_EQ(all.service.completed, result.service.completed);
}

TEST(ServiceSimulator, ZeroArrivalConfigReproducesTheBatchRunBitForBit) {
  ServiceConfig config;
  config.cell = service_cell();
  const ServiceResult service = simulate_service(config, make_scheduler("ema"));
  const RunMetrics batch = simulate(config.cell, make_scheduler("ema"), false);

  ASSERT_EQ(service.run.per_user.size(), batch.per_user.size());
  EXPECT_EQ(service.run.slots_run, batch.slots_run);
  for (std::size_t i = 0; i < batch.per_user.size(); ++i) {
    EXPECT_EQ(service.run.per_user[i].trans_mj, batch.per_user[i].trans_mj) << i;
    EXPECT_EQ(service.run.per_user[i].tail_mj, batch.per_user[i].tail_mj) << i;
    EXPECT_EQ(service.run.per_user[i].rebuffer_s, batch.per_user[i].rebuffer_s) << i;
    EXPECT_EQ(service.run.per_user[i].delivered_kb, batch.per_user[i].delivered_kb)
        << i;
    EXPECT_EQ(service.run.per_user[i].session_slots, batch.per_user[i].session_slots)
        << i;
  }
  // The derived session view: every user one admitted session.
  EXPECT_EQ(service.service.offered, checked_index(config.cell.users));
  EXPECT_EQ(service.service.admitted, service.service.offered);
  EXPECT_EQ(service.service.completed +
                service.service.aborted + service.service.in_flight_at_end,
            service.service.admitted);
}

TEST(ServiceSimulator, ZeroArrivalFaultedRunDrawsItsScheduleOnce) {
  // The batch run's fault hook and the derived abort count share one draw.
  ServiceConfig config;
  config.cell = service_cell();
  config.cell.faults.outage_rate_per_kslot = 8.0;
  config.cell.faults.staleness_rate_per_kslot = 10.0;
  config.cell.faults.departure_fraction = 0.5;
  const telemetry::Counter& schedules =
      telemetry::global_registry().counter("fault.schedules");
  const std::int64_t drawn_before = schedules.value();
  const ServiceResult result = simulate_service(config, make_scheduler("ema"));
  EXPECT_EQ(schedules.value() - drawn_before, 1);
  EXPECT_GT(result.service.aborted, 0);
  EXPECT_EQ(service_digest(result), kZeroArrivalFaultedDigest);
}

TEST(ServiceSimulator, ThresholdAdmissionRejectsUnderOverload) {
  ServiceConfig overload = poisson_service(0.8, /*warmup=*/25);
  overload.cell.capacity_kbps = 1500.0;  // ~3 sessions' worth
  ServiceConfig limited = overload;
  limited.admission.kind = AdmissionKind::kThreshold;
  limited.admission.threshold.capacity_headroom = 1.1;

  const ServiceResult open = simulate_service(overload, make_scheduler("default"));
  const ServiceResult gated = simulate_service(limited, make_scheduler("default"));

  // Same arrival stream (purity contract), different admission outcome.
  EXPECT_EQ(open.service.offered, gated.service.offered);
  EXPECT_EQ(open.service.rejected, 0);
  EXPECT_GT(gated.service.rejected, 0);
  EXPECT_LT(gated.service.admitted, open.service.admitted);
  EXPECT_LT(gated.service.mean_concurrency(), open.service.mean_concurrency());
  // The protected cell stalls less per served user-slot.
  EXPECT_LT(gated.service.mean_rebuffer_per_user_slot_s(),
            open.service.mean_rebuffer_per_user_slot_s());
}

TEST(ServiceSimulator, SessionRecordsCoverTheMeasuredSessions) {
  ServiceConfig config = poisson_service(0.2, /*warmup=*/40);
  config.keep_session_records = true;
  const ServiceResult result = simulate_service(config, make_scheduler("default"));
  const ServiceMetrics& m = result.service;
  ASSERT_EQ(checked_index(m.records.size()), m.sessions_measured);
  EXPECT_GT(m.sessions_measured, 0);
  for (const SessionRecord& record : m.records) {
    EXPECT_GE(record.start_slot, config.warmup_slots);
    EXPECT_GT(record.end_slot, record.start_slot);
    EXPECT_LE(record.end_slot, config.cell.max_slots);
    EXPECT_GE(record.arrival_index, 0);
    EXPECT_LT(record.user_slot, m.capacity_slots);
    EXPECT_GE(record.rebuffer_s, 0.0);
    EXPECT_GE(record.energy_mj, 0.0);
  }
}

TEST(ServiceSimulator, FaultDeparturesAbortServiceSessions) {
  ServiceConfig config = poisson_service(0.3);
  config.cell.faults.departure_fraction = 1.0;  // every population slot draws one
  const ServiceResult result = simulate_service(config, make_scheduler("default"));
  EXPECT_GT(result.service.aborted, 0);
  EXPECT_EQ(result.service.completed + result.service.aborted +
                result.service.in_flight_at_end,
            result.service.admitted);
}

TEST(ServiceSimulator, SlotPathHoldsThePaperInvariantsAcrossRebinds) {
  // The checker must accept mid-run population changes: epochs resync its
  // per-user queue and RRC baselines at every rebind.
  analysis::set_validation_enabled(true);
  const ServiceConfig config = poisson_service(0.25, /*warmup=*/20);
  EXPECT_NO_THROW({
    const ServiceResult result = simulate_service(config, make_scheduler("ema"));
    EXPECT_GT(result.service.completed, 0);
  });
  analysis::set_validation_enabled(false);
}

TEST(ServiceSimulator, ValidateRejectsIllFormedConfigs) {
  ServiceConfig config = poisson_service(0.1);
  config.warmup_slots = config.cell.max_slots;  // nothing left to measure
  EXPECT_THROW(validate(config), Error);
  config.warmup_slots = -1;
  EXPECT_THROW(validate(config), Error);
  config.warmup_slots = 0;
  EXPECT_NO_THROW(validate(config));

  // Fingerprint: zero iff arrivals are inactive.
  EXPECT_NE(service_fingerprint(config), 0u);
  ServiceConfig batch;
  batch.cell = service_cell();
  EXPECT_EQ(service_fingerprint(batch), 0u);
}

TEST(ServiceSimulator, StreamedRunEqualsTheEagerTraceRun) {
  // With no trace the session manager streams the population's channel; the
  // service digest must equal a run handed the eager generate's matrix,
  // unfaulted and faulted, across several 32-row blocks at N = 1000.
  for (const bool faulted : {false, true}) {
    ServiceConfig config;
    config.cell = paper_scenario(/*users=*/1000, /*seed=*/31);
    config.cell.max_slots = 200;
    config.cell.video_min_mb = 2.0;
    config.cell.video_max_mb = 6.0;
    config.arrivals.kind = ArrivalKind::kPoisson;
    config.arrivals.rate_per_slot = 15.0;
    config.warmup_slots = 20;
    if (faulted) {
      config.cell.faults.outage_rate_per_kslot = 8.0;
      config.cell.faults.staleness_rate_per_kslot = 10.0;
      config.cell.faults.departure_fraction = 0.5;
    }
    ASSERT_GT(config.cell.max_slots,
              3 * SignalTraceSet::stream_block_slots(config.cell.users));
    const ServiceResult streamed = simulate_service(config, make_scheduler("ema"));
    const ServiceResult eager = simulate_service(config, make_scheduler("ema"), false,
                                                 generate_signal_trace_set(config.cell));
    EXPECT_GT(streamed.service.admitted, 0);
    EXPECT_EQ(service_digest(streamed), service_digest(eager))
        << (faulted ? "faulted" : "unfaulted");
  }
}

TEST(ServiceSimulator, StepApiExposesLiveState) {
  const ServiceConfig config = poisson_service(0.5);
  ServiceSimulator simulator(config, make_scheduler("default"));
  EXPECT_EQ(simulator.slot(), 0);
  while (simulator.slot() < 50 && simulator.step()) {
  }
  EXPECT_EQ(simulator.slot(), 50);
  EXPECT_GT(simulator.active_sessions(), 0u);
  while (simulator.step()) {
  }
  const ServiceResult result = simulator.finish();
  EXPECT_EQ(result.service.slots_run, config.cell.max_slots);
}

}  // namespace
}  // namespace jstream
