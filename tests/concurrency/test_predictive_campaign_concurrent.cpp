// Predictive campaigns under concurrency (runs in the TSan configuration via
// the `concurrency` label): predictive series derive their forecasts inside
// worker threads while the trace cache serves shared channel substrates —
// sharded predictive grids must match the serial baseline bit for bit, and
// predictive cells carrying an active forecast error spec must never alias a
// prediction-free cache entry (the forecast fingerprint is part of the
// TraceKey), while perfect-forecast cells deliberately DO share the
// prediction-free entry (their fingerprint is 0: same substrate, same key).

#include <gtest/gtest.h>

#include <vector>

#include "sim/campaign.hpp"
#include "sim/forecast.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace jstream {
namespace {

SchedulerOptions predictive_options(std::int64_t horizon = 40) {
  SchedulerOptions options;
  options.ema_predictive.horizon_slots = horizon;
  return options;
}

ScenarioConfig base_scenario(std::uint64_t seed) {
  ScenarioConfig config = paper_scenario(/*users=*/4, seed);
  config.max_slots = 150;
  return config;
}

/// Mixed grid: plain EMA and perfect-forecast predictive cells on the clean
/// scenario, noisy-forecast predictive cells on the same seeds.
std::vector<ExperimentSpec> mixed_specs(std::uint64_t seed,
                                        std::size_t replications) {
  const std::vector<CampaignSeries> clean_series = {
      {"ema", "ema", {}},
      {"pred-perfect", "ema-predictive", predictive_options()},
  };
  ScenarioConfig noisy = base_scenario(seed);
  noisy.forecast.sigma_dbm = 5.0;
  const std::vector<CampaignSeries> noisy_series = {
      {"pred-noisy", "ema-predictive", predictive_options()},
  };
  std::vector<ExperimentSpec> specs =
      make_campaign_grid(base_scenario(seed), clean_series, replications);
  const std::vector<ExperimentSpec> noisy_specs =
      make_campaign_grid(noisy, noisy_series, replications);
  specs.insert(specs.end(), noisy_specs.begin(), noisy_specs.end());
  return specs;
}

TEST(PredictiveCampaignConcurrent, ShardedMixedGridMatchesSerialWithoutAliasing) {
  const std::vector<ExperimentSpec> specs = mixed_specs(91, /*replications=*/2);

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
    EXPECT_EQ(metrics_digest(sharded[i]), metrics_digest(baseline[i]))
        << specs[i].label;
  }
  // 2 replication seeds x {prediction-free key space, noisy-forecast key
  // space}: four generations. The perfect-forecast predictive cells MUST hit
  // the prediction-free entries (fingerprint 0), the noisy ones must not.
  EXPECT_EQ(shared_cache.misses(), 4u);

  // The noisy forecast genuinely changes the schedule (same seeds, same
  // channel substrate, different prices fed to the deferral term).
  const std::size_t clean_cells = 2 * 2;  // series x replications
  bool any_differs = false;
  for (std::size_t rep = 0; rep < 2; ++rep) {
    const RunMetrics& perfect = sharded[rep * 2 + 1];  // pred-perfect, rep-major
    const RunMetrics& noisy = sharded[clean_cells + rep];
    if (metrics_digest(perfect) != metrics_digest(noisy)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

}  // namespace
}  // namespace jstream
