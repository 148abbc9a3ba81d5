#include "workloads.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "analysis/invariant_checker.hpp"
#include "baselines/factory.hpp"
#include "common/units.hpp"
#include "gateway/framework.hpp"
#include "net/base_station.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace jstream;

Workload parse_workload(const std::string& name) {
  if (name == "ema-congested-n100") return Workload::kEmaCongested;
  if (name == "faultsweep-n40") return Workload::kFaultSweep;
  if (name == "service-churn-n1000") return Workload::kServiceChurn;
  throw std::invalid_argument("unknown workload: " + name);
}

EmaCell make_ema_cell(std::uint64_t seed) {
  EmaCell cell;
  cell.config = paper_scenario(kEmaUsers, seed);
  cell.config.video_min_mb = 5000.0;
  cell.config.video_max_mb = 8000.0;
  cell.config.max_slots = kEmaWarmupSlots + kEmaMeasuredSlots;
  // Endpoints do not depend on the capacity, so it can follow their draw.
  cell.endpoints = build_endpoints(cell.config);
  double demand_kbps = 0.0;
  for (const UserEndpoint& endpoint : cell.endpoints) {
    demand_kbps += endpoint.session.bitrate_kbps(0);
  }
  cell.config.capacity_kbps = kEmaCapacityShare * demand_kbps;
  return cell;
}

namespace {

/// The bench_fault_sweep schedulers, in its order.
const std::vector<std::string>& sweep_schedulers() {
  static const std::vector<std::string> names{"default", "throttling", "onoff", "salsa",
                                              "estreamer", "rtma", "ema"};
  return names;
}

/// One degraded-cell intensity of the sweep.
struct FaultLevel {
  std::string name;
  FaultConfig faults;
};

/// The bench_fault_sweep levels: none, low, medium, high.
const std::vector<FaultLevel>& fault_levels() {
  static const std::vector<FaultLevel> levels = [] {
    FaultConfig low;
    low.outage_rate_per_kslot = 2.0;
    low.outage_min_slots = 5;
    low.outage_max_slots = 20;
    low.staleness_rate_per_kslot = 4.0;
    low.departure_fraction = 0.10;
    low.capacity_rate_per_kslot = 1.0;
    low.capacity_scale = 0.8;

    FaultConfig medium;
    medium.outage_rate_per_kslot = 5.0;
    medium.outage_min_slots = 5;
    medium.outage_max_slots = 30;
    medium.staleness_rate_per_kslot = 10.0;
    medium.staleness_max_slots = 30;
    medium.departure_fraction = 0.25;
    medium.capacity_rate_per_kslot = 2.0;
    medium.capacity_scale = 0.5;

    FaultConfig high;
    high.outage_rate_per_kslot = 12.0;
    high.outage_min_slots = 10;
    high.outage_max_slots = 40;
    high.staleness_rate_per_kslot = 25.0;
    high.staleness_min_slots = 5;
    high.staleness_max_slots = 40;
    high.departure_fraction = 0.5;
    high.capacity_rate_per_kslot = 4.0;
    high.capacity_scale = 0.3;
    return std::vector<FaultLevel>{{"none", {}}, {"low", low}, {"medium", medium},
                                   {"high", high}};
  }();
  return levels;
}

}  // namespace

std::uint64_t sweep_first_seed(std::uint64_t seed, std::size_t batch) {
  return (seed * kSweepBatches + batch) * kSweepSeeds;
}

SweepSetup prepare_sweep(std::uint64_t first_seed, std::size_t seeds) {
  SweepSetup setup;
  setup.cache = std::make_unique<TraceCache>();
  TraceCache& cache = *setup.cache;
  std::vector<ScenarioConfig> bases;
  for (std::size_t s = 0; s < seeds; ++s) {
    ScenarioConfig base = paper_scenario(kSweepUsers, first_seed + s);
    base.max_slots = kSweepHorizonSlots;
    for (const FaultLevel& level : fault_levels()) {
      ScenarioConfig scenario = base;
      scenario.faults = level.faults;
      const double start = now_s();
      (void)cache.get_or_generate(scenario);
      setup.generate_s.push_back(now_s() - start);
    }
    bases.push_back(std::move(base));
  }
  setup.generations = cache.generations();
  for (const ScenarioConfig& base : bases) {
    const SchedulerOptions rtma_options =
        rtma_options_for_alpha(1.0, run_default_reference(base, &cache));
    for (const FaultLevel& level : fault_levels()) {
      ScenarioConfig scenario = base;
      scenario.faults = level.faults;
      for (const std::string& name : sweep_schedulers()) {
        ExperimentSpec spec{level.name + "/" + name, name, scenario, {}};
        if (name == "rtma") spec.options = rtma_options;
        setup.specs.push_back(std::move(spec));
      }
    }
  }
  return setup;
}

std::vector<RunMetrics> run_sweep_campaign(const SweepSetup& setup) {
  CampaignOptions options;
  options.keep_series = true;
  options.cache = setup.cache.get();
  return run_campaign(setup.specs, options);
}

EarlyStop::EarlyStop(const ScenarioConfig& config)
    : enabled_(config.early_stop),
      flush_slots_(ceil_to_count(config.radio.tail_duration_s() / config.slot.tau_s) + 1) {}

bool EarlyStop::done(std::int64_t slot, std::span<const UserEndpoint> endpoints) {
  if (!enabled_) return false;
  bool all_done = true;
  for (const UserEndpoint& endpoint : endpoints) {
    if (endpoint.departed(slot)) continue;
    if (endpoint.active()) {
      all_done = false;
      break;
    }
  }
  idle_streak_ = all_done ? idle_streak_ + 1 : 0;
  return idle_streak_ >= flush_slots_;
}

namespace {

std::unique_ptr<Framework> make_framework(const ScenarioConfig& config,
                                          std::unique_ptr<Scheduler> scheduler,
                                          SchedulingMode mode) {
  const double backhaul = config.backhaul_kbps > 0.0
                              ? config.backhaul_kbps
                              : std::numeric_limits<double>::infinity();
  return std::make_unique<Framework>(InfoCollector(config.slot, config.link, config.radio),
                                     std::move(scheduler), mode, config.users, backhaul);
}

double mean_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Replays one cell as Simulator::run does, timing each slot around
/// Framework::run_slot plus MetricsCollector::record_slot.
RunMetrics replay_cell(const ExperimentSpec& spec, std::shared_ptr<const SignalTraceSet> trace,
                       std::vector<double>& slot_us) {
  const ScenarioConfig& config = spec.scenario;
  std::vector<UserEndpoint> endpoints = build_endpoints(config);
  for (std::size_t i = 0; i < endpoints.size(); ++i) endpoints[i].attach_trace(trace.get(), i);
  const BaseStation bs(capacity_profile(config));
  const std::unique_ptr<Framework> framework =
      make_framework(config, make_scheduler_for_scenario(spec.scheduler, spec.options, config),
                     SchedulingMode::kBaseline);
  std::unique_ptr<FaultInjector> injector;
  if (config.faults.any()) {
    injector = std::make_unique<FaultInjector>(
        std::make_shared<const FaultSchedule>(make_fault_schedule(config)));
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      endpoints[i].depart_at(injector->schedule().departure_slot(i));
    }
    framework->attach_fault_hook(injector.get());
  }
  MetricsCollector metrics(config.users, /*keep_series=*/true);
  EarlyStop early_stop(config);
  for (std::int64_t slot = 0; slot < config.max_slots; ++slot) {
    const double t0 = now_s();
    const SlotOutcome& outcome = framework->run_slot(slot, endpoints, bs);
    metrics.record_slot(framework->last_context(), outcome);
    slot_us.push_back((now_s() - t0) * 1e6);
    if (early_stop.done(slot, endpoints)) break;
  }
  return metrics.finish();
}

Round run_ema_round(std::uint64_t seed) {
  Round round;
  const double start = now_s();
  EmaCell cell = make_ema_cell(seed);
  const ScenarioConfig& config = cell.config;
  std::vector<UserEndpoint>& endpoints = cell.endpoints;
  const BaseStation bs(capacity_profile(config));
  const std::unique_ptr<Framework> framework =
      make_framework(config, make_scheduler("ema"), SchedulingMode::kEnergyMinimization);
  MetricsCollector metrics(config.users, /*keep_series=*/false);
  std::int64_t slot = 0;
  for (; slot < kEmaWarmupSlots; ++slot) {
    const SlotOutcome& outcome = framework->run_slot(slot, endpoints, bs);
    metrics.record_slot(framework->last_context(), outcome);
  }
  round.setup_s = now_s() - start;

  round.slot_us.reserve(static_cast<std::size_t>(kEmaMeasuredSlots));
  std::int64_t unbound_slots = 0;
  std::int64_t idle_user_slots = 0;
  const double timed_start = now_s();
  for (; slot < config.max_slots; ++slot) {
    const double t0 = now_s();
    const SlotOutcome& outcome = framework->run_slot(slot, endpoints, bs);
    metrics.record_slot(framework->last_context(), outcome);
    round.slot_us.push_back((now_s() - t0) * 1e6);
    // Shape: Eq. 2 binds and all sessions still want data in every slot.
    const std::int64_t granted =
        std::accumulate(outcome.units.begin(), outcome.units.end(), std::int64_t{0});
    if (granted != bs.capacity_units(slot, config.slot)) ++unbound_slots;
    for (const double need : outcome.need_kb) idle_user_slots += need > 0.0 ? 0 : 1;
  }
  round.timed_s = now_s() - timed_start;

  const RunMetrics run = metrics.finish();
  round.operations = kEmaMeasuredSlots;
  round.user_slots = static_cast<double>(kEmaMeasuredSlots * static_cast<std::int64_t>(kEmaUsers));
  round.digests = {digest(run)};
  round.pe_mj = run.avg_energy_per_user_slot_mj();
  round.pc_ms = 1000.0 * run.avg_rebuffer_per_user_slot_s();
  if (unbound_slots != 0) {
    round.shape_errors.push_back("Eq. 2 did not bind in " + std::to_string(unbound_slots) +
                                 " measured slots");
  }
  if (idle_user_slots != 0) {
    round.shape_errors.push_back(std::to_string(idle_user_slots) +
                                 " measured user-slots had no session streaming");
  }
  return round;
}

Round run_service_round(std::uint64_t seed) {
  Round round;
  const double start = now_s();
  ServiceSimulator sim(service_churn_config(seed), make_scheduler("ema"),
                       SchedulingMode::kEnergyMinimization);
  for (std::int64_t i = 0; i < kServiceWarmupSlots; ++i) (void)sim.step();
  round.setup_s = now_s() - start;

  round.slot_us.reserve(static_cast<std::size_t>(kServiceMeasuredSlots));
  const double timed_start = now_s();
  for (std::int64_t i = 0; i < kServiceMeasuredSlots; ++i) {
    const double t0 = now_s();
    (void)sim.step();
    round.slot_us.push_back((now_s() - t0) * 1e6);
  }
  round.timed_s = now_s() - timed_start;

  const ServiceResult result = sim.finish();
  const ServiceMetrics& s = result.service;
  round.operations = kServiceMeasuredSlots;
  round.user_slots = static_cast<double>(s.active_user_slots);
  round.digests = {digest(result.run, s)};
  round.pe_mj = s.mean_energy_per_user_slot_mj();
  round.pc_ms = 1000.0 * s.mean_rebuffer_per_user_slot_s();
  if (s.measured_slots != kServiceMeasuredSlots) {
    round.shape_errors.push_back("measured " + std::to_string(s.measured_slots) +
                                 " service slots");
  }
  if (s.blocked != 0) {
    round.shape_errors.push_back(std::to_string(s.blocked) + " arrivals were blocked");
  }
  return round;
}

Round run_sweep_round(std::uint64_t seed, std::size_t batch) {
  Round round;
  const double start = now_s();
  const SweepSetup setup = prepare_sweep(sweep_first_seed(seed, batch), kSweepSeeds);
  round.setup_s = now_s() - start;

  TraceCache& cache = *setup.cache;
  const std::uint64_t hits_before = cache.hits();
  const double timed_start = now_s();
  const std::vector<RunMetrics> results = run_sweep_campaign(setup);
  round.timed_s = now_s() - timed_start;

  std::vector<double> pe;
  std::vector<double> pc;
  for (const RunMetrics& run : results) {
    round.user_slots += static_cast<double>(run.slots_run) * static_cast<double>(kSweepUsers);
    round.digests.push_back(digest(run));
    pe.push_back(run.avg_energy_per_user_slot_mj());
    pc.push_back(1000.0 * run.avg_rebuffer_per_user_slot_s());
  }
  round.operations = static_cast<std::int64_t>(results.size());
  round.pe_mj = mean_of(pe);
  round.pc_ms = mean_of(pc);

  const std::uint64_t expected_traces = kSweepSeeds * fault_levels().size();
  if (setup.generations != expected_traces) {
    round.shape_errors.push_back("set-up generated " + std::to_string(setup.generations) +
                                 " traces, expected " + std::to_string(expected_traces));
  }
  if (cache.generations() != setup.generations ||
      cache.hits() - hits_before != setup.specs.size()) {
    round.shape_errors.push_back("campaign cells were not all served from the trace cache");
  }

  // Per-slot latency: the batch's first seed's cells replayed on this thread.
  const std::size_t seed_cells = fault_levels().size() * sweep_schedulers().size();
  for (std::size_t i = 0; i < seed_cells; ++i) {
    const ExperimentSpec& spec = setup.specs[i];
    const RunMetrics replayed =
        replay_cell(spec, cache.get_or_generate(spec.scenario), round.slot_us);
    if (digest(replayed) != round.digests[i]) {
      round.shape_errors.push_back("replay of cell " + spec.label +
                                   " differs from its campaign run");
    }
  }
  return round;
}

}  // namespace

ServiceConfig service_churn_config(std::uint64_t seed) {
  ServiceConfig config;
  config.cell = paper_scenario(kServicePopulation, seed);
  config.cell.capacity_kbps =
      kServiceCapacityPerSlotKbps * static_cast<double>(kServicePopulation);
  config.cell.video_min_mb = 2.0;
  config.cell.video_max_mb = 20.0;
  config.cell.max_slots = kServiceWarmupSlots + kServiceMeasuredSlots;
  config.arrivals.kind = ArrivalKind::kPoisson;
  config.arrivals.rate_per_slot = kServiceArrivalShare * static_cast<double>(kServicePopulation);
  config.admission.kind = AdmissionKind::kAcceptAll;
  config.warmup_slots = kServiceWarmupSlots;
  return config;
}

std::int64_t expected_operations(Workload workload) {
  switch (workload) {
    case Workload::kEmaCongested: return kEmaMeasuredSlots;
    case Workload::kFaultSweep:
      return static_cast<std::int64_t>(kSweepSeeds * fault_levels().size() *
                                       sweep_schedulers().size());
    case Workload::kServiceChurn: return kServiceMeasuredSlots;
  }
  throw std::logic_error("unhandled workload");
}

std::size_t round_variants(Workload workload) {
  return workload == Workload::kFaultSweep ? kSweepBatches : 1;
}

Round run_round(Workload workload, std::uint64_t seed, std::size_t variant) {
  switch (workload) {
    case Workload::kEmaCongested: return run_ema_round(seed);
    case Workload::kFaultSweep: return run_sweep_round(seed, variant);
    case Workload::kServiceChurn: return run_service_round(seed);
  }
  throw std::logic_error("unhandled workload");
}

bool matches_prefix(const std::vector<std::uint64_t>& digests,
                    const std::vector<std::uint64_t>& prefix) {
  return !prefix.empty() && prefix.size() <= digests.size() &&
         std::equal(prefix.begin(), prefix.end(), digests.begin());
}

std::vector<std::uint64_t> run_validation_pass(Workload workload, std::uint64_t seed) {
  struct ValidationScope {
    ValidationScope() { analysis::set_validation_enabled(true); }
    ~ValidationScope() { analysis::set_validation_enabled(false); }
  } scope;
  if (workload != Workload::kFaultSweep) return run_round(workload, seed, 0).digests;
  const SweepSetup setup = prepare_sweep(sweep_first_seed(seed, 0), 1);
  std::vector<std::uint64_t> digests;
  for (const RunMetrics& run : run_sweep_campaign(setup)) digests.push_back(digest(run));
  return digests;
}

}  // namespace perfbench
