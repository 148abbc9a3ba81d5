// Service-mode campaigns under concurrency (runs in the TSan configuration
// via the `concurrency` label): sharded service grids must match an
// undisturbed serial baseline bit for bit, and service cells must share or
// isolate trace-cache entries exactly as their arrival fingerprints dictate —
// zero-arrival service cells alias batch entries (they are the same run),
// active-arrival cells never do.

#include <gtest/gtest.h>

#include <vector>

#include "session/service_campaign.hpp"
#include "sim/campaign.hpp"

namespace jstream {
namespace {

ScenarioConfig service_cell(std::uint64_t seed) {
  ScenarioConfig cell = paper_scenario(/*users=*/4, seed);
  cell.max_slots = 150;
  cell.video_min_mb = 2.0;
  cell.video_max_mb = 4.0;
  return cell;
}

std::vector<ServiceExperimentSpec> service_specs(std::uint64_t seed, double rate) {
  const char* schedulers[] = {"default", "ema-fast", "rtma"};
  std::vector<ServiceExperimentSpec> specs;
  for (const char* name : schedulers) {
    ServiceExperimentSpec spec;
    spec.label = name;
    spec.scheduler = name;
    spec.config.cell = service_cell(seed);
    if (rate > 0.0) {
      spec.config.arrivals.kind = ArrivalKind::kPoisson;
      spec.config.arrivals.rate_per_slot = rate;
      spec.config.warmup_slots = 30;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ServiceCampaignConcurrent, ShardedServiceGridMatchesSerialBaseline) {
  std::vector<ServiceExperimentSpec> specs = service_specs(91, 0.3);
  const std::vector<ServiceExperimentSpec> more = service_specs(92, 0.3);
  specs.insert(specs.end(), more.begin(), more.end());
  for (ServiceExperimentSpec& spec : specs) spec.config.keep_session_records = true;

  TraceCache serial_cache;
  CampaignOptions serial;
  serial.threads = 1;
  serial.keep_series = true;
  serial.cache = &serial_cache;
  const std::vector<ServiceResult> baseline = run_service_campaign(specs, serial);

  TraceCache shared_cache;
  CampaignOptions parallel = serial;
  parallel.threads = 4;
  parallel.cache = &shared_cache;
  const std::vector<ServiceResult> sharded = run_service_campaign(specs, parallel);

  // Every field of both layers, per-slot series and session records
  // included, through the digest.
  ASSERT_EQ(sharded.size(), baseline.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_FALSE(baseline[i].service.records.empty()) << specs[i].label;
    EXPECT_EQ(service_digest(sharded[i]), service_digest(baseline[i])) << specs[i].label;
  }
  // One substrate per (seed, arrival fingerprint): three schedulers share it.
  EXPECT_EQ(shared_cache.misses(), 2u);
}

TEST(ServiceCampaignConcurrent, ServiceAndBatchEntriesShareOrIsolateByFingerprint) {
  // One cache serves three key classes over the same scenario: batch cells,
  // zero-arrival service cells (same key as batch — the runs are identical),
  // and Poisson service cells (own entry via the arrival fingerprint).
  const ScenarioConfig cell = service_cell(57);

  std::vector<ServiceExperimentSpec> specs = service_specs(57, 0.0);  // zero-arrival
  const std::vector<ServiceExperimentSpec> poisson = service_specs(57, 0.3);
  specs.insert(specs.end(), poisson.begin(), poisson.end());
  std::vector<ExperimentSpec> batch_specs;
  for (const char* name : {"default", "ema-fast", "rtma"}) {
    batch_specs.push_back(ExperimentSpec{name, name, cell, {}});
  }

  TraceCache cache;
  CampaignOptions options;
  options.threads = 4;
  options.cache = &cache;
  const std::vector<ServiceResult> service = run_service_campaign(specs, options);
  const std::vector<RunMetrics> batch = run_campaign(batch_specs, options);

  // Two generations total: (scenario, 0) shared by six runs across both
  // engines, (scenario, poisson fp) for the three arrival cells.
  EXPECT_EQ(cache.misses(), 2u);

  // Sharing is sound because zero-arrival service IS the batch run.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(metrics_digest(service[i].run), metrics_digest(batch[i]))
        << batch_specs[i].label;
  }
  // And the Poisson cells genuinely ran a different workload.
  bool any_differs = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (service[batch.size() + i].run.total_energy_mj() !=
        batch[i].total_energy_mj()) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

}  // namespace
}  // namespace jstream
