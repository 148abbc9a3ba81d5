// User-parallel trace generation (runs in the TSan configuration via the
// `concurrency` label). generate_signal_trace_set fills users across a pool;
// the signal matrix must still equal, byte for byte, the serial walk through
// the public API, whichever thread calls it: the main
// thread (the process-wide shared pool) or a task of a 1-worker or 4-worker
// pool (that pool, with the caller claiming work). A campaign with fewer
// trace keys than threads, whose workers all read the one key's fill-on-read
// trace, must digest equal to its one-thread run.

#include "sim/trace_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "sim/campaign.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace jstream {
namespace {

constexpr std::int64_t kSlots = 240;

/// The serial reference: constructor, then fill_user per user in order.
std::shared_ptr<const SignalTraceSet> serial_reference(const ScenarioConfig& config) {
  std::vector<UserEndpoint> endpoints = build_endpoints(config);
  auto set = std::make_shared<SignalTraceSet>(config.users, config.max_slots);
  for (std::size_t user = 0; user < endpoints.size(); ++user) {
    set->fill_user(user, *endpoints[user].signal);
  }
  return set;
}

bool same_bytes(const double* a, const double* b, std::size_t cells) {
  return std::memcmp(a, b, cells * sizeof(double)) == 0;
}

void expect_bit_identical(const SignalTraceSet& got, const SignalTraceSet& want,
                          const std::string& label) {
  ASSERT_EQ(got.users(), want.users()) << label;
  ASSERT_EQ(got.slots(), want.slots()) << label;
  const std::size_t cells = want.users() * checked_size(want.slots());
  EXPECT_TRUE(same_bytes(got.signal_data(), want.signal_data(), cells)) << label;
}

ScenarioConfig scenario(std::size_t users, SignalKind kind, bool vbr) {
  ScenarioConfig config = paper_scenario(users, /*seed=*/1000 + users);
  config.max_slots = kSlots;
  config.signal_kind = kind;
  config.vbr = vbr;
  if (kind == SignalKind::kTrace) {
    // Longer than the horizon, so each user's rotation shows.
    for (int i = 0; i < 300; ++i) config.trace_dbm.push_back(-100.0 + 0.13 * i);
  }
  return config;
}

struct Case {
  ScenarioConfig config;
  std::string label;
};

std::vector<Case> every_case() {
  std::vector<Case> cases;
  const std::pair<SignalKind, const char*> kinds[] = {
      {SignalKind::kSine, "sine"},
      {SignalKind::kGaussMarkov, "gauss-markov"},
      {SignalKind::kTrace, "trace"}};
  for (const auto& [kind, name] : kinds) {
    for (const bool vbr : {false, true}) {
      for (const std::size_t users : {1U, 3U, 40U, 97U}) {
        cases.push_back({scenario(users, kind, vbr),
                         std::string(name) + (vbr ? " vbr" : " cbr") + " N=" +
                             std::to_string(users)});
      }
    }
  }
  return cases;
}

TEST(TraceGenerationParallel, MainThreadMatchesSerialReference) {
  for (const Case& c : every_case()) {
    expect_bit_identical(*generate_signal_trace_set(c.config),
                         *serial_reference(c.config), c.label + " from main");
  }
}

TEST(TraceGenerationParallel, PoolTaskMatchesSerialReference) {
  const std::vector<Case> cases = every_case();
  for (const std::size_t workers : {1U, 4U}) {
    ThreadPool pool(workers);
    for (const Case& c : cases) {
      // A pool task generates on its own pool, claiming users itself.
      auto generated =
          pool.submit([&c] { return generate_signal_trace_set(c.config); }).get();
      expect_bit_identical(*generated, *serial_reference(c.config),
                           c.label + " from a task of a " + std::to_string(workers) +
                               "-worker pool");
    }
  }
}

TEST(TraceGenerationParallel, EveryWorkerGeneratingAtOnceMatchesSerialReference) {
  // Four tasks of a 4-worker pool generate at the same time, each fanning out
  // onto a pool with no idle worker: each must finish on its own claims.
  const std::vector<Case> cases = every_case();
  ThreadPool pool(4);
  const auto generated = parallel_map(pool, cases.size(), [&](std::size_t i) {
    return generate_signal_trace_set(cases[i].config);
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expect_bit_identical(*generated[i], *serial_reference(cases[i].config),
                         cases[i].label + " from a busy pool");
  }
}

TEST(TraceGenerationParallel, OneSeedCampaignOnFourThreadsMatchesOneThread) {
  // One trace key, seven cells: four workers share its one creation and
  // fill its rows as they read them.
  std::vector<CampaignSeries> series;
  for (const char* name : {"default", "throttling", "onoff", "salsa", "estreamer", "rtma",
                           "ema-fast"}) {
    series.push_back({name, name, {}});
  }
  ScenarioConfig base = paper_scenario(40, 7);
  base.max_slots = 300;
  const std::vector<ExperimentSpec> specs = make_campaign_grid(base, series, 1);
  const auto digest = [&specs](std::size_t threads) {
    TraceCache cache;
    CampaignOptions options;
    options.threads = threads;
    options.cache = &cache;
    const std::vector<RunMetrics> results = run_campaign(specs, options);
    EXPECT_EQ(cache.generations(), 1U);
    return metrics_digest(std::span<const RunMetrics>(results));
  };
  EXPECT_EQ(digest(4), digest(1));
}

}  // namespace
}  // namespace jstream
