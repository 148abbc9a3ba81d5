// Campaign engine correctness. The headline requirement is differential:
// running any scheduler against the precomputed trace substrate must be
// bit-identical — slots run, every per-user total, and every per-slot series
// — to the plain per-run path that drives the SignalModels incrementally.
// On top of that, run_campaign must agree with a serial run_experiment loop
// cell for cell and keep spec order, the grid builder must order specs
// rep-major, and a faulted grid must draw one fault schedule per key.

#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"
#include "telemetry/registry.hpp"

namespace jstream {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed = 11) {
  ScenarioConfig config = paper_scenario(/*users=*/8, seed);
  config.max_slots = 300;
  return config;
}

void expect_identical_runs(const RunMetrics& a, const RunMetrics& b,
                           const std::string& label) {
  EXPECT_EQ(a.slots_run, b.slots_run) << label;
  ASSERT_EQ(a.per_user.size(), b.per_user.size()) << label;
  for (std::size_t u = 0; u < a.per_user.size(); ++u) {
    EXPECT_EQ(a.per_user[u].trans_mj, b.per_user[u].trans_mj) << label << " u" << u;
    EXPECT_EQ(a.per_user[u].tail_mj, b.per_user[u].tail_mj) << label << " u" << u;
    EXPECT_EQ(a.per_user[u].rebuffer_s, b.per_user[u].rebuffer_s)
        << label << " u" << u;
    EXPECT_EQ(a.per_user[u].delivered_kb, b.per_user[u].delivered_kb)
        << label << " u" << u;
    EXPECT_EQ(a.per_user[u].session_slots, b.per_user[u].session_slots)
        << label << " u" << u;
    EXPECT_EQ(a.per_user[u].tx_slots, b.per_user[u].tx_slots) << label << " u" << u;
    EXPECT_EQ(a.per_user[u].playback_finished, b.per_user[u].playback_finished)
        << label << " u" << u;
  }
  ASSERT_EQ(a.slot_fairness.size(), b.slot_fairness.size()) << label;
  ASSERT_EQ(a.slot_energy_mj.size(), b.slot_energy_mj.size()) << label;
  ASSERT_EQ(a.rebuffer_samples_s.size(), b.rebuffer_samples_s.size()) << label;
  for (std::size_t i = 0; i < a.slot_fairness.size(); ++i) {
    EXPECT_EQ(a.slot_fairness[i], b.slot_fairness[i]) << label << " slot " << i;
  }
  for (std::size_t i = 0; i < a.slot_energy_mj.size(); ++i) {
    EXPECT_EQ(a.slot_energy_mj[i], b.slot_energy_mj[i]) << label << " slot " << i;
  }
  for (std::size_t i = 0; i < a.rebuffer_samples_s.size(); ++i) {
    EXPECT_EQ(a.rebuffer_samples_s[i], b.rebuffer_samples_s[i])
        << label << " sample " << i;
  }
}

TEST(Campaign, TracedRunsBitIdenticalForEveryScheduler) {
  const ScenarioConfig scenario = small_scenario();
  const std::shared_ptr<const SignalTraceSet> trace =
      generate_signal_trace_set(scenario);
  for (const std::string& name : scheduler_names()) {
    ExperimentSpec spec;
    spec.label = name;
    spec.scheduler = name;
    spec.scenario = scenario;
    const RunMetrics plain = run_experiment(spec, /*keep_series=*/true);
    const RunMetrics traced = run_experiment(spec, /*keep_series=*/true, trace);
    expect_identical_runs(plain, traced, name);
  }
}

TEST(Campaign, GridIsRepMajor) {
  const std::vector<CampaignSeries> series = {
      {"a", "default", {}},
      {"b", "rtma", {}},
  };
  const ScenarioConfig base = small_scenario(5);
  const std::vector<ExperimentSpec> specs = make_campaign_grid(base, series, 3);
  ASSERT_EQ(specs.size(), 6u);
  for (std::size_t rep = 0; rep < 3; ++rep) {
    for (std::size_t s = 0; s < series.size(); ++s) {
      const ExperimentSpec& spec = specs[rep * series.size() + s];
      EXPECT_EQ(spec.label, series[s].label);
      EXPECT_EQ(spec.scheduler, series[s].scheduler);
      EXPECT_EQ(spec.scenario.seed, base.seed + rep);
    }
  }
}

TEST(Campaign, MatchesSweepCellForCell) {
  const std::vector<CampaignSeries> series = {
      {"default", "default", {}},
      {"rtma", "rtma", {}},
      {"ema-fast", "ema-fast", {}},
  };
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(), series, /*replications=*/2);

  std::vector<RunMetrics> serial;
  for (const ExperimentSpec& spec : specs) {
    serial.push_back(run_experiment(spec, /*keep_series=*/true));
  }

  TraceCache cache;
  CampaignOptions options;
  options.threads = 2;
  options.keep_series = true;
  options.cache = &cache;
  const std::vector<RunMetrics> campaign = run_campaign(specs, options);

  ASSERT_EQ(campaign.size(), serial.size());
  for (std::size_t i = 0; i < campaign.size(); ++i) {
    expect_identical_runs(serial[i], campaign[i], specs[i].label);
  }
  // 2 replications over one scenario: one generation per seed, rest hits.
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(specs.size()) - 2u);
}

TEST(Campaign, MatchesSequentialExecution) {
  // Uncached, multi-threaded, with short videos so sessions finish well
  // inside the slot budget: totals must equal one run_experiment per spec.
  ScenarioConfig scenario = paper_scenario(/*users=*/3, /*seed=*/7);
  scenario.video_min_mb = 5.0;
  scenario.video_max_mb = 10.0;
  scenario.max_slots = 1500;
  const std::vector<ExperimentSpec> specs = {
      {"default", "default", scenario, {}},
      {"throttling", "throttling", scenario, {}},
  };
  CampaignOptions options;
  options.threads = 2;
  const std::vector<RunMetrics> parallel = run_campaign(specs, options);
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunMetrics sequential = run_experiment(specs[i], /*keep_series=*/false);
    EXPECT_GT(sequential.total_energy_mj(), 0.0) << specs[i].label;
    EXPECT_DOUBLE_EQ(parallel[i].total_energy_mj(), sequential.total_energy_mj());
    EXPECT_DOUBLE_EQ(parallel[i].total_rebuffer_s(), sequential.total_rebuffer_s());
  }
}

TEST(Campaign, EmptySpecListRunsNothing) {
  TraceCache cache;
  CampaignOptions options;
  options.cache = &cache;
  EXPECT_TRUE(run_campaign({}, options).empty());
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(Campaign, KeepSeriesFlagForwarded) {
  const std::vector<ExperimentSpec> specs = {{"default", "default", small_scenario(), {}}};
  CampaignOptions options;
  EXPECT_TRUE(run_campaign(specs, options)[0].slot_energy_mj.empty());
  options.keep_series = true;
  EXPECT_FALSE(run_campaign(specs, options)[0].slot_energy_mj.empty());
}

TEST(Campaign, ResultsKeepSpecOrderAcrossPopulations) {
  std::vector<ExperimentSpec> specs;
  for (const std::size_t users : {2UL, 4UL, 6UL}) {
    specs.push_back({"default", "default", small_scenario(), {}});
    specs.back().scenario.users = users;
  }
  CampaignOptions options;
  options.threads = 2;
  const std::vector<RunMetrics> results = run_campaign(specs, options);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].per_user.size(), specs[i].scenario.users);
  }
}

TEST(Campaign, UncachedModeMatchesCachedMode) {
  const std::vector<CampaignSeries> series = {{"default", "default", {}}};
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(), series, /*replications=*/2);

  TraceCache cache;
  CampaignOptions cached;
  cached.cache = &cache;
  cached.keep_series = true;
  CampaignOptions uncached = cached;
  uncached.use_trace_cache = false;

  const std::vector<RunMetrics> with_cache = run_campaign(specs, cached);
  const std::vector<RunMetrics> without_cache = run_campaign(specs, uncached);
  ASSERT_EQ(with_cache.size(), without_cache.size());
  for (std::size_t i = 0; i < with_cache.size(); ++i) {
    expect_identical_runs(with_cache[i], without_cache[i], specs[i].label);
  }
  // Uncached mode generated per cell and never touched the cache.
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(Campaign, GridPastTheCacheBudgetStillLooksUpOncePerCell) {
  const std::vector<CampaignSeries> series = {{"default", "default", {}},
                                              {"ema-fast", "ema-fast", {}}};
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(), series, /*replications=*/3);

  // Room for one trace: each seed's trace evicts the last, so a seed's later
  // cells may miss again, yet every cell still looks up exactly once.
  TraceCache cache(SignalTraceSet::estimate_bytes(small_scenario().users,
                                                  small_scenario().max_slots));
  CampaignOptions cached;
  cached.threads = 2;
  cached.keep_series = true;
  cached.cache = &cache;
  CampaignOptions uncached = cached;
  uncached.use_trace_cache = false;

  const std::vector<RunMetrics> with_cache = run_campaign(specs, cached);
  const std::vector<RunMetrics> without_cache = run_campaign(specs, uncached);
  ASSERT_EQ(with_cache.size(), without_cache.size());
  for (std::size_t i = 0; i < with_cache.size(); ++i) {
    expect_identical_runs(with_cache[i], without_cache[i], specs[i].label);
  }
  EXPECT_EQ(cache.hits() + cache.misses(), specs.size());
  EXPECT_GE(cache.misses(), 3u);
}

TEST(Campaign, CellErrorLeavesTheCampaignAsAnException) {
  // Eight chunks on two threads, each a valid cell and then one naming an
  // unknown scheduler: the first error arrives while later chunks are still
  // queued, and those chunks read the campaign's state. The error must
  // surface only after they ran (the ASan build checks the state was alive).
  const std::vector<CampaignSeries> series = {{"default", "default", {}},
                                              {"bad", "no-such-scheduler", {}}};
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(), series, /*replications=*/8);
  TraceCache cache;
  CampaignOptions options;
  options.threads = 2;
  options.cache = &cache;
  EXPECT_THROW((void)run_campaign(specs, options), Error);
}

TEST(Campaign, FaultedGridDrawsOneSchedulePerKeyAndMatchesASerialLoop) {
  // Three schedulers x two seeds under a benign, a low and a high fault
  // config: the faulted cells fall into four (seed, fault config) keys.
  ScenarioConfig low = small_scenario(41);
  low.faults.outage_rate_per_kslot = 6.0;
  low.faults.staleness_rate_per_kslot = 10.0;
  low.faults.departure_fraction = 0.25;
  ScenarioConfig high = low;
  high.faults.outage_rate_per_kslot = 15.0;
  high.faults.capacity_rate_per_kslot = 6.0;
  const std::vector<CampaignSeries> series = {
      {"default", "default", {}}, {"rtma", "rtma", {}}, {"ema", "ema", {}}};
  std::vector<ExperimentSpec> specs;
  for (const ScenarioConfig& base : {small_scenario(41), low, high}) {
    const std::vector<ExperimentSpec> grid =
        make_campaign_grid(base, series, /*replications=*/2);
    specs.insert(specs.end(), grid.begin(), grid.end());
  }

  std::vector<RunMetrics> serial;
  for (const ExperimentSpec& spec : specs) {
    serial.push_back(run_experiment(spec, /*keep_series=*/false));
  }
  TraceCache cache;
  CampaignOptions options;
  options.threads = 1;
  options.cache = &cache;
  const telemetry::Counter& schedules =
      telemetry::global_registry().counter("fault.schedules");
  const std::int64_t drawn_before = schedules.value();
  const std::vector<RunMetrics> campaign = run_campaign(specs, options);
  EXPECT_EQ(schedules.value() - drawn_before, 4);

  ASSERT_EQ(campaign.size(), serial.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(metrics_digest(campaign[i]), metrics_digest(serial[i])) << "cell " << i;
  }
  EXPECT_EQ(metrics_digest(std::span<const RunMetrics>(campaign)),
            metrics_digest(std::span<const RunMetrics>(serial)));
}

TEST(Campaign, ReferenceHelpersAcceptACache) {
  const ScenarioConfig scenario = small_scenario();
  TraceCache cache;
  const DefaultReference plain = run_default_reference(scenario);
  const DefaultReference cached = run_default_reference(scenario, &cache);
  EXPECT_EQ(plain.energy_per_user_slot_mj, cached.energy_per_user_slot_mj);
  EXPECT_EQ(plain.rebuffer_per_user_slot_s, cached.rebuffer_per_user_slot_s);
  EXPECT_EQ(plain.trans_per_tx_slot_mj, cached.trans_per_tx_slot_mj);
  EXPECT_EQ(cache.misses(), 1u);

  const double v_plain =
      calibrate_v_for_rebuffer(scenario, /*omega_s=*/0.01, 1e-4, 10.0, 4);
  const double v_cached = calibrate_v_for_rebuffer(scenario, /*omega_s=*/0.01, 1e-4,
                                                   10.0, 4, &cache);
  EXPECT_EQ(v_plain, v_cached);
  EXPECT_EQ(cache.misses(), 1u);  // calibration reused the resident trace
}

}  // namespace
}  // namespace jstream
