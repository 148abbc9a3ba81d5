// Faulted campaigns under concurrency (runs in the TSan configuration via
// the `concurrency` label): each fault schedule is drawn once per key by
// whichever worker first needs it and shared by that key's other cells,
// while the trace cache serves shared channel substrates — sharded faulted
// grids must match an undisturbed serial baseline bit for bit, and faulted
// cells must never alias an unfaulted cache entry even when both key spaces
// race through one cache.

#include <gtest/gtest.h>

#include <vector>

#include "sim/campaign.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"
#include "telemetry/registry.hpp"

namespace jstream {
namespace {

ScenarioConfig faulted_scenario(std::uint64_t seed) {
  ScenarioConfig config = paper_scenario(/*users=*/4, seed);
  config.max_slots = 150;
  config.faults.outage_rate_per_kslot = 10.0;
  config.faults.staleness_rate_per_kslot = 15.0;
  config.faults.departure_fraction = 0.4;
  config.faults.capacity_rate_per_kslot = 6.0;
  config.faults.capacity_min_slots = 5;
  config.faults.capacity_max_slots = 20;
  return config;
}

const std::vector<CampaignSeries> kSeries = {
    {"default", "default", {}},
    {"rtma", "rtma", {}},
    {"ema-fast", "ema-fast", {}},
};

TEST(FaultCampaignConcurrent, ShardedFaultedGridMatchesSerialBaseline) {
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(faulted_scenario(31), kSeries, /*replications=*/3);

  TraceCache serial_cache;
  CampaignOptions serial;
  serial.threads = 1;
  serial.cache = &serial_cache;
  const std::vector<RunMetrics> baseline = run_campaign(specs, serial);

  TraceCache shared_cache;
  CampaignOptions parallel;
  parallel.threads = 4;
  parallel.cache = &shared_cache;
  const std::vector<RunMetrics> sharded = run_campaign(specs, parallel);

  ASSERT_EQ(sharded.size(), baseline.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].slots_run, baseline[i].slots_run) << specs[i].label;
    EXPECT_EQ(sharded[i].total_energy_mj(), baseline[i].total_energy_mj())
        << specs[i].label;
    EXPECT_EQ(sharded[i].total_rebuffer_s(), baseline[i].total_rebuffer_s())
        << specs[i].label;
    EXPECT_EQ(sharded[i].completion_rate(), baseline[i].completion_rate())
        << specs[i].label;
  }
  // One trace generation per replication seed, shards notwithstanding.
  EXPECT_EQ(shared_cache.misses(), 3u);
}

TEST(FaultCampaignConcurrent, FaultedAndBenignGridsShareACacheWithoutAliasing) {
  // The same seeds race through one cache from both key spaces; the fault
  // fingerprint keeps the entry sets disjoint while each run stays equal to
  // its own serial baseline.
  ScenarioConfig benign = faulted_scenario(57);
  benign.faults = FaultConfig{};
  std::vector<ExperimentSpec> specs =
      make_campaign_grid(faulted_scenario(57), kSeries, /*replications=*/2);
  const std::vector<ExperimentSpec> benign_specs =
      make_campaign_grid(benign, kSeries, /*replications=*/2);
  specs.insert(specs.end(), benign_specs.begin(), benign_specs.end());

  TraceCache serial_cache;
  CampaignOptions serial;
  serial.threads = 1;
  serial.cache = &serial_cache;
  const std::vector<RunMetrics> baseline = run_campaign(specs, serial);

  TraceCache shared_cache;
  CampaignOptions parallel;
  parallel.threads = 4;
  parallel.cache = &shared_cache;
  const std::vector<RunMetrics> sharded = run_campaign(specs, parallel);

  ASSERT_EQ(sharded.size(), baseline.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].slots_run, baseline[i].slots_run) << specs[i].label;
    EXPECT_EQ(sharded[i].total_energy_mj(), baseline[i].total_energy_mj())
        << specs[i].label;
    EXPECT_EQ(sharded[i].total_rebuffer_s(), baseline[i].total_rebuffer_s())
        << specs[i].label;
  }
  // 2 seeds x {faulted, benign} key spaces: four distinct generations.
  EXPECT_EQ(shared_cache.misses(), 4u);

  // The faulted grid genuinely diverges from the benign one (same seeds).
  const std::size_t half = specs.size() / 2;
  bool any_differs = false;
  for (std::size_t i = 0; i < half; ++i) {
    if (sharded[i].total_energy_mj() != sharded[half + i].total_energy_mj()) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(FaultCampaignConcurrent, SharedSchedulesOnFourThreadsMatchASerialLoop) {
  // Three schedulers x three seeds under two fault configs: six schedule
  // keys, each drawn once while up to four workers need it.
  ScenarioConfig heavy = faulted_scenario(71);
  heavy.faults.outage_rate_per_kslot = 25.0;
  heavy.faults.salt = 3;
  std::vector<ExperimentSpec> specs =
      make_campaign_grid(faulted_scenario(71), kSeries, /*replications=*/3);
  const std::vector<ExperimentSpec> heavy_specs =
      make_campaign_grid(heavy, kSeries, /*replications=*/3);
  specs.insert(specs.end(), heavy_specs.begin(), heavy_specs.end());

  std::vector<RunMetrics> serial;
  for (const ExperimentSpec& spec : specs) {
    serial.push_back(run_experiment(spec, /*keep_series=*/false));
  }
  TraceCache cache;
  CampaignOptions parallel;
  parallel.threads = 4;
  parallel.cache = &cache;
  const telemetry::Counter& schedules =
      telemetry::global_registry().counter("fault.schedules");
  const std::int64_t drawn_before = schedules.value();
  const std::vector<RunMetrics> sharded = run_campaign(specs, parallel);
  EXPECT_EQ(schedules.value() - drawn_before, 6);

  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(metrics_digest(sharded[i]), metrics_digest(serial[i])) << specs[i].label;
  }
}

}  // namespace
}  // namespace jstream
