// Pins every telemetry count of two fixed workloads: a faulted
// seven-scheduler campaign grid and a small service grid. For each, every
// non-zero counter total, every histogram's count() and the tracer's
// total_recorded() must equal the table below, on one thread and on a
// 4-thread pool. The tables were captured from the code that still kept the
// Eq. 1/Eq. 2 clip and RRC-transition bookkeeping in Framework::run_slot and
// recorded into unsharded metrics; reproducing them shows that moving that
// bookkeeping into DataTransmitter::apply_into and sharding the metrics per
// thread neither drops nor double-counts an event.
//
// `ema.queue_level_s` is left out on purpose: it changed meaning from one
// observation per user per slot to one per slot (the slot's worst Eq. 16
// queue), so its count is now the number of EMA slots.
//
// `fault.schedules` counts schedule draws. run_campaign draws one schedule
// per (seed, users, horizon, fault config) key and shares it across the
// grid's cells, so the faulted grid's 7 schedulers x 2 seeds draw 2
// schedules (it read 14, one per cell, before schedules were shared).
//
// `trace.blocks_filled` counts the blocks of SignalTraceSet::kFillBlockSlots
// rows that fill-on-read trace sets filled. Each grid reads both of its two
// traces through slot 299, so each fills 2 blocks (256 + 44 rows): 4 per
// grid, whatever the thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "session/service_campaign.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "telemetry/registry.hpp"

namespace jstream {
namespace {

using CountTable = std::vector<std::pair<std::string, std::int64_t>>;

/// Every non-zero count the global registry holds, sorted by name: counters
/// by their own name, histogram counts as "histogram:<name>", and the tracer
/// total as "tracer.total_recorded".
CountTable nonzero_counts() {
  auto& registry = telemetry::global_registry();
  CountTable table;
  for (const std::string& name : registry.counter_names()) {
    const std::int64_t value = registry.counter(name).value();
    if (value != 0) table.emplace_back(name, value);
  }
  for (const std::string& name : registry.histogram_names()) {
    if (name == "ema.queue_level_s") continue;
    const std::int64_t count = registry.histogram(name).count();
    if (count != 0) table.emplace_back("histogram:" + name, count);
  }
  const std::int64_t events = registry.tracer().total_recorded();
  if (events != 0) table.emplace_back("tracer.total_recorded", events);
  return table;
}

/// Prints `table` as a C++ initializer, so a deliberate change of what is
/// counted can be re-pinned from the failure output.
std::string as_initializer(const CountTable& table) {
  std::string out = "{\n";
  for (const auto& [name, value] : table) {
    out += "    {\"" + name + "\", " + std::to_string(value) + "},\n";
  }
  return out + "}";
}

void expect_counts(const CountTable& expected, const CountTable& actual,
                   const std::string& what) {
  EXPECT_EQ(actual, expected) << what << " counted\n" << as_initializer(actual);
}

ScenarioConfig faulted_cell() {
  // bench_fault_sweep's "medium" intensity on a small paper-scenario slice.
  ScenarioConfig config = paper_scenario(/*users=*/6, /*seed=*/17);
  config.max_slots = 300;
  config.capacity_kbps = 1500.0;  // scarce, so Eq. 2 binds in some slots
  config.faults.outage_rate_per_kslot = 5.0;
  config.faults.outage_min_slots = 5;
  config.faults.outage_max_slots = 30;
  config.faults.staleness_rate_per_kslot = 10.0;
  config.faults.staleness_max_slots = 30;
  config.faults.departure_fraction = 0.25;
  config.faults.capacity_rate_per_kslot = 2.0;
  config.faults.capacity_scale = 0.5;
  return config;
}

std::vector<ExperimentSpec> faulted_grid() {
  const ScenarioConfig base = faulted_cell();
  // RTMA's Eq. 12 budget anchored mid-range so the threshold admits some
  // user-slots and rejects others.
  const SchedulerOptions rtma = rtma_options_for_alpha(0.9, run_default_reference(base));
  const std::vector<CampaignSeries> series = {
      {"default", "default", {}}, {"throttling", "throttling", {}},
      {"onoff", "onoff", {}},     {"salsa", "salsa", {}},
      {"estreamer", "estreamer", {}}, {"rtma", "rtma", rtma},
      {"ema", "ema", {}}};
  return make_campaign_grid(base, series, /*replications=*/2);
}

std::vector<ServiceExperimentSpec> service_grid() {
  std::vector<ServiceExperimentSpec> specs;
  for (const std::uint64_t seed : {23u, 24u}) {
    for (const char* name : {"ema", "rtma"}) {
      ServiceExperimentSpec spec;
      spec.label = name;
      spec.scheduler = name;
      spec.config.cell = paper_scenario(/*users=*/12, seed);
      spec.config.cell.max_slots = 300;
      spec.config.cell.video_min_mb = 2.0;
      spec.config.cell.video_max_mb = 6.0;
      spec.config.arrivals.kind = ArrivalKind::kPoisson;
      spec.config.arrivals.rate_per_slot = 0.8;
      spec.config.warmup_slots = 30;
      // The RTMA cells gate arrivals on capacity and backlog, so the
      // admission counters see rejections as well as acceptances.
      if (spec.scheduler == "rtma") {
        spec.config.admission.kind = AdmissionKind::kThreshold;
        spec.config.admission.threshold.capacity_headroom = 4.0;
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

template <typename Run>
CountTable counts_of(Run&& run) {
  telemetry::global_registry().reset_values();
  run();
  return nonzero_counts();
}

const CountTable kFaultedGridCounts = {
    {"campaign.cells", 14},
    {"campaign.runs", 1},
    {"constraint.eq1.link_cap_clips", 1139},
    {"constraint.eq2.capacity_clips", 3836},
    {"ema.allocations", 600},
    {"fault.capacity_degraded_slots", 420},
    {"fault.departures", 28},
    {"fault.outage_user_slots", 1078},
    {"fault.schedules", 2},
    {"fault.stale_clipped_units", 111},
    {"fault.stale_user_slots", 2016},
    {"gateway.slots", 4200},
    {"rrc.transitions.dch_to_fach", 375},
    {"rrc.transitions.fach_to_dch", 216},
    {"rrc.transitions.fach_to_idle", 155},
    {"rrc.transitions.idle_to_dch", 220},
    {"rtma.admitted_users", 826},
    {"rtma.allocations", 600},
    {"rtma.rejected_users", 1849},
    {"sim.runs", 14},
    {"sim.slots_total", 4200},
    {"trace.blocks_filled", 4},
    {"trace_cache.hits", 12},
    {"trace_cache.misses", 2},
    {"histogram:ema.solve_latency_us", 600},
    {"histogram:scheduler.decision_latency_us", 4200},
    {"histogram:sim.run_latency_us", 14},
    {"histogram:trace_cache.generate_latency_us", 2},
    {"tracer.total_recorded", 8390},
};

const CountTable kServiceGridCounts = {
    {"admission.accepted", 536},
    {"admission.blocked", 243},
    {"admission.offered", 952},
    {"admission.rejected", 173},
    {"campaign.cells", 4},
    {"campaign.runs", 1},
    {"constraint.eq1.link_cap_clips", 318},
    {"ema.allocations", 600},
    {"gateway.slots", 1200},
    {"rrc.transitions.dch_to_fach", 512},
    {"rrc.transitions.fach_to_idle", 508},
    {"rrc.transitions.idle_to_dch", 523},
    {"rtma.admitted_users", 895},
    {"rtma.allocations", 600},
    {"session.runs", 4},
    {"trace.blocks_filled", 4},
    {"trace_cache.hits", 2},
    {"trace_cache.misses", 2},
    {"histogram:ema.solve_latency_us", 600},
    {"histogram:scheduler.decision_latency_us", 1200},
    {"histogram:trace_cache.generate_latency_us", 2},
    {"tracer.total_recorded", 2461},
};

TEST(PinnedTelemetryCounts, FaultedGridOnOneThreadAndOnFour) {
  const std::vector<ExperimentSpec> specs = faulted_grid();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    TraceCache cache;
    CampaignOptions options;
    options.threads = threads;
    options.cache = &cache;
    const CountTable counts = counts_of([&] { (void)run_campaign(specs, options); });
    expect_counts(kFaultedGridCounts, counts,
                  "faulted grid on " + std::to_string(threads) + " thread(s)");
  }
}

TEST(PinnedTelemetryCounts, ServiceGridOnOneThreadAndOnFour) {
  const std::vector<ServiceExperimentSpec> specs = service_grid();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    TraceCache cache;
    CampaignOptions options;
    options.threads = threads;
    options.cache = &cache;
    const CountTable counts =
        counts_of([&] { (void)run_service_campaign(specs, options); });
    expect_counts(kServiceGridCounts, counts,
                  "service grid on " + std::to_string(threads) + " thread(s)");
  }
}

}  // namespace
}  // namespace jstream
