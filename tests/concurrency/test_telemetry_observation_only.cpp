// Telemetry is observation-only on every simulation path: the batch, service,
// faulted and predictive grids each run on a 4-thread pool with telemetry
// off and then on, and every cell must digest identically. Runs in the TSan
// configuration via the `concurrency` label, so the per-thread metric shards
// the cells record into are raced as well.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "session/service_campaign.hpp"
#include "sim/campaign.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "telemetry/registry.hpp"

namespace jstream {
namespace {

struct EnabledGuard {
  ~EnabledGuard() { telemetry::set_enabled(true); }
};

ScenarioConfig small_cell(std::uint64_t seed) {
  ScenarioConfig config = paper_scenario(/*users=*/5, seed);
  config.max_slots = 200;
  return config;
}

std::vector<std::uint64_t> batch_digests(const std::vector<ExperimentSpec>& specs,
                                         const CampaignOptions& options) {
  std::vector<std::uint64_t> digests;
  for (const RunMetrics& run : run_campaign(specs, options)) {
    digests.push_back(metrics_digest(run));
  }
  return digests;
}

std::vector<std::uint64_t> batch_grid(const CampaignOptions& options) {
  const std::vector<CampaignSeries> series = {{"default", "default", {}},
                                              {"rtma", "rtma", {}},
                                              {"ema", "ema", {}},
                                              {"ema-fast", "ema-fast", {}}};
  return batch_digests(make_campaign_grid(small_cell(41), series, 2), options);
}

std::vector<std::uint64_t> service_grid(const CampaignOptions& options) {
  std::vector<ServiceExperimentSpec> specs;
  for (const std::uint64_t seed : {43u, 44u}) {
    for (const char* name : {"ema", "rtma"}) {
      ServiceExperimentSpec spec;
      spec.label = name;
      spec.scheduler = name;
      spec.config.cell = small_cell(seed);
      spec.config.cell.video_min_mb = 2.0;
      spec.config.cell.video_max_mb = 4.0;
      spec.config.arrivals.kind = ArrivalKind::kPoisson;
      spec.config.arrivals.rate_per_slot = 0.5;
      spec.config.warmup_slots = 20;
      spec.config.keep_session_records = true;
      specs.push_back(std::move(spec));
    }
  }
  std::vector<std::uint64_t> digests;
  for (const ServiceResult& result : run_service_campaign(specs, options)) {
    digests.push_back(service_digest(result));
  }
  return digests;
}

std::vector<std::uint64_t> faulted_grid(const CampaignOptions& options) {
  // bench_fault_sweep's "medium" intensity.
  ScenarioConfig config = small_cell(45);
  config.faults.outage_rate_per_kslot = 5.0;
  config.faults.outage_min_slots = 5;
  config.faults.outage_max_slots = 30;
  config.faults.staleness_rate_per_kslot = 10.0;
  config.faults.staleness_max_slots = 30;
  config.faults.departure_fraction = 0.25;
  config.faults.capacity_rate_per_kslot = 2.0;
  config.faults.capacity_scale = 0.5;
  const std::vector<CampaignSeries> series = {{"default", "default", {}},
                                              {"rtma", "rtma", {}},
                                              {"ema", "ema", {}},
                                              {"salsa", "salsa", {}}};
  return batch_digests(make_campaign_grid(config, series, 2), options);
}

std::vector<std::uint64_t> predictive_grid(const CampaignOptions& options) {
  ScenarioConfig config = small_cell(47);
  config.forecast.sigma_dbm = 3.0;
  SchedulerOptions predictive;
  predictive.ema_predictive.horizon_slots = 30;
  const std::vector<CampaignSeries> series = {
      {"ema-predictive", "ema-predictive", predictive}};
  return batch_digests(make_campaign_grid(config, series, 4), options);
}

struct PathCase {
  const char* name;
  std::function<std::vector<std::uint64_t>(const CampaignOptions&)> run;
};

TEST(TelemetryObservationOnly, EveryPathDigestsEquallyWithTelemetryOffAndOn) {
  const EnabledGuard guard;
  const std::vector<PathCase> cases = {{"batch", batch_grid},
                                       {"service (Poisson churn)", service_grid},
                                       {"medium faults", faulted_grid},
                                       {"ema-predictive", predictive_grid}};
  for (const PathCase& path : cases) {
    CampaignOptions options;
    options.threads = 4;
    options.keep_series = true;

    TraceCache off_cache;
    options.cache = &off_cache;
    telemetry::set_enabled(false);
    const std::vector<std::uint64_t> off = path.run(options);

    TraceCache on_cache;
    options.cache = &on_cache;
    telemetry::set_enabled(true);
    const std::vector<std::uint64_t> on = path.run(options);

    ASSERT_EQ(on.size(), off.size()) << path.name;
    ASSERT_FALSE(on.empty()) << path.name;
    for (std::size_t cell = 0; cell < on.size(); ++cell) {
      EXPECT_EQ(on[cell], off[cell]) << path.name << " cell " << cell;
    }
  }
}

}  // namespace
}  // namespace jstream
