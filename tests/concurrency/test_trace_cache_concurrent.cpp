// Trace cache under concurrency (runs in the TSan configuration via the
// `concurrency` label): parallel campaign shards hammer one shared cache
// with overlapping keys — racing first-misses must collapse into a single
// generation per key, every thread must observe the same immutable set, and
// results must match an undisturbed serial baseline bit for bit.

#include "sim/trace_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/scenario.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed) {
  ScenarioConfig config = paper_scenario(/*users=*/4, seed);
  config.max_slots = 80;
  return config;
}

TEST(TraceCacheConcurrent, RacingLookupsShareOneGenerationPerKey) {
  TraceCache cache;
  constexpr int kThreads = 8;
  constexpr int kSeeds = 3;
  std::vector<std::shared_ptr<const SignalTraceSet>> seen(kThreads * kSeeds);
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.fetch_add(1);
      while (start.load() < kThreads) {}  // line the threads up on the cache
      for (int s = 0; s < kSeeds; ++s) {
        seen[checked_size(t * kSeeds + s)] =
            cache.get_or_generate(small_scenario(static_cast<std::uint64_t>(s)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // All threads resolved each seed to the same immutable set.
  for (int s = 0; s < kSeeds; ++s) {
    const SignalTraceSet* expected = seen[checked_size(s)].get();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[checked_size(t * kSeeds + s)].get(), expected);
    }
  }
  EXPECT_EQ(cache.size(), checked_size(kSeeds));
  EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(kSeeds));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads * kSeeds));
}

TEST(TraceCacheConcurrent, ConcurrentInsertAndEvictionStaysConsistent) {
  // A budget of one entry forces every distinct-seed insert to evict the
  // previous resident while other threads are mid-lookup.
  const ScenarioConfig probe = small_scenario(0);
  TraceCache cache(SignalTraceSet::estimate_bytes(probe.users, probe.max_slots));
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        const auto seed = static_cast<std::uint64_t>((t + round) % 4);
        const auto set = cache.get_or_generate(small_scenario(seed));
        ASSERT_NE(set, nullptr);
        EXPECT_EQ(set->slots(), probe.max_slots);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GE(cache.size(), 1u);
  EXPECT_LE(cache.resident_bytes(),
            2 * SignalTraceSet::estimate_bytes(probe.users, probe.max_slots));
}

TEST(TraceCacheConcurrent, ParallelCampaignShardsMatchSerialBaseline) {
  const std::vector<CampaignSeries> series = {
      {"default", "default", {}},
      {"rtma", "rtma", {}},
      {"ema-fast", "ema-fast", {}},
  };
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(21), series, /*replications=*/3);

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
  // Sharded or not, one generation per seed.
  EXPECT_EQ(shared_cache.misses(), 3u);
}

}  // namespace
}  // namespace jstream
