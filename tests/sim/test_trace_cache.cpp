// Trace cache behaviour: key identity mirrors exactly the scenario fields
// that shape the signal matrix, generation reproduces the per-endpoint
// models bit-for-bit, and the LRU honours its byte budget while never
// evicting the most recent entry.

#include "sim/trace_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "baselines/factory.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace jstream {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed = 7) {
  ScenarioConfig config = paper_scenario(/*users=*/4, seed);
  config.max_slots = 120;
  return config;
}

TEST(TraceKey, EqualConfigsShareAKey) {
  const TraceKey a = make_trace_key(small_scenario());
  const TraceKey b = make_trace_key(small_scenario());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(TraceKeyHash{}(a), TraceKeyHash{}(b));
}

TEST(TraceKey, SensitiveToSignalShapingFields) {
  const ScenarioConfig base = small_scenario();
  const TraceKey key = make_trace_key(base);

  ScenarioConfig other = base;
  other.seed = base.seed + 1;
  EXPECT_FALSE(key == make_trace_key(other));

  other = base;
  other.users += 1;
  EXPECT_FALSE(key == make_trace_key(other));

  other = base;
  other.max_slots += 1;
  EXPECT_FALSE(key == make_trace_key(other));

  other = base;
  other.signal_kind = SignalKind::kGaussMarkov;
  EXPECT_FALSE(key == make_trace_key(other));

  other = base;
  other.signal.period_slots *= 2.0;
  EXPECT_FALSE(key == make_trace_key(other));

  // VBR flips the bitrate builder from a uniform() draw to a split, shifting
  // every later per-user draw (including the sine phase) — different trace.
  other = base;
  other.vbr = true;
  EXPECT_FALSE(key == make_trace_key(other));
}

TEST(TraceKey, InsensitiveToNonSignalFields) {
  // Capacity, horizon-independent knobs, and metric ranges that consume a
  // fixed number of RNG draws do not alter the signal matrix.
  const ScenarioConfig base = small_scenario();
  ScenarioConfig other = base;
  other.capacity_kbps *= 2.0;
  other.video_min_mb += 50.0;
  other.video_max_mb += 50.0;
  other.bitrate_min_kbps += 10.0;
  other.bitrate_max_kbps += 10.0;
  other.arrival_spread_slots = 40;
  other.early_stop = false;
  EXPECT_TRUE(make_trace_key(base) == make_trace_key(other));
}

TEST(TraceKey, FaultFingerprintIsolatesFaultedCampaigns) {
  const ScenarioConfig base = small_scenario();
  EXPECT_EQ(make_trace_key(base).fault_fingerprint, 0u);

  ScenarioConfig faulted = base;
  faulted.faults.outage_rate_per_kslot = 5.0;
  const TraceKey faulted_key = make_trace_key(faulted);
  EXPECT_NE(faulted_key.fault_fingerprint, 0u);
  EXPECT_FALSE(make_trace_key(base) == faulted_key);

  // Different intensities and salts are distinct key spaces too.
  ScenarioConfig retuned = faulted;
  retuned.faults.outage_rate_per_kslot = 6.0;
  EXPECT_FALSE(faulted_key == make_trace_key(retuned));
  ScenarioConfig salted = faulted;
  salted.faults.salt = 3;
  EXPECT_FALSE(faulted_key == make_trace_key(salted));

  // Zero intensity with a nonzero salt is still the unfaulted key: no fault
  // can fire, so sharing the unfaulted entry is correct.
  ScenarioConfig inactive = base;
  inactive.faults.salt = 9;
  EXPECT_TRUE(make_trace_key(base) == make_trace_key(inactive));
}

TEST(TraceCacheTest, FaultedAndUnfaultedRunsNeverShareEntries) {
  TraceCache cache;
  const ScenarioConfig base = small_scenario();
  ScenarioConfig faulted = base;
  faulted.faults.staleness_rate_per_kslot = 8.0;

  const auto clean_set = cache.get_or_generate(base);
  const auto faulted_set = cache.get_or_generate(faulted);
  EXPECT_NE(clean_set.get(), faulted_set.get());  // isolated entries
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.get_or_generate(faulted).get(), faulted_set.get());
  EXPECT_EQ(cache.get_or_generate(base).get(), clean_set.get());
  EXPECT_EQ(cache.hits(), 2u);

  // The isolation is about keys, not content: faults apply at collect time,
  // so the generated matrices are bit-identical across the two entries.
  for (std::size_t user = 0; user < base.users; ++user) {
    for (std::int64_t slot = 0; slot < base.max_slots; ++slot) {
      ASSERT_EQ(clean_set->signal_dbm(user, slot),
                faulted_set->signal_dbm(user, slot))
          << "user " << user << " slot " << slot;
    }
  }
}

TEST(TraceCacheTest, ScenariosDifferingOnlyInLinkModelShareOneEntry) {
  // A trace holds sig_i(n) only; the collector evaluates the link fits per
  // slot, so the link model is no part of the trace's identity.
  const ScenarioConfig paper = small_scenario();
  ScenarioConfig custom = paper;
  auto throughput = std::make_shared<const LinearThroughputModel>(55.0, 7000.0);
  custom.link = LinkModel{throughput, std::make_shared<const FittedPowerModel>(throughput, -0.2)};
  EXPECT_TRUE(make_trace_key(paper) == make_trace_key(custom));
  EXPECT_EQ(trace_key_fingerprint(make_trace_key(paper)),
            trace_key_fingerprint(make_trace_key(custom)));

  TraceCache cache;
  const auto first = cache.get_or_generate(paper);
  const auto second = cache.get_or_generate(custom);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.generations(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // The shared entry serves the custom link's run exactly as its live run.
  const RunMetrics live = simulate(custom, make_scheduler("default"), /*keep_series=*/true);
  const RunMetrics cached =
      simulate(custom, make_scheduler("default"), /*keep_series=*/true, second);
  EXPECT_EQ(metrics_digest(cached), metrics_digest(live));
  EXPECT_NE(metrics_digest(live),
            metrics_digest(simulate(paper, make_scheduler("default"), true, first)));
}

TEST(TraceCacheTest, GenerateMatchesEndpointModelsBitForBit) {
  for (const SignalKind kind :
       {SignalKind::kSine, SignalKind::kGaussMarkov, SignalKind::kTrace}) {
    ScenarioConfig config = small_scenario();
    config.signal_kind = kind;
    if (kind == SignalKind::kTrace) {
      config.trace_dbm = {-55.0, -65.0, -75.0, -85.0, -95.0, -105.0};
    }
    const std::shared_ptr<const SignalTraceSet> set =
        generate_signal_trace_set(config);
    ASSERT_EQ(set->users(), config.users);
    ASSERT_EQ(set->slots(), config.max_slots);

    std::vector<UserEndpoint> endpoints = build_endpoints(config);
    for (std::size_t user = 0; user < endpoints.size(); ++user) {
      for (std::int64_t slot = 0; slot < config.max_slots; ++slot) {
        EXPECT_EQ(set->signal_dbm(user, slot), endpoints[user].signal->signal_dbm(slot))
            << "kind " << static_cast<int>(kind) << " user " << user << " slot "
            << slot;
      }
    }
  }
}

TEST(TraceCacheTest, HitsAndMissesAreCounted) {
  TraceCache cache;
  const ScenarioConfig config = small_scenario();
  const auto first = cache.get_or_generate(config);
  const auto second = cache.get_or_generate(config);
  EXPECT_EQ(first.get(), second.get());  // same immutable set, not a copy
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_bytes(),
            SignalTraceSet::estimate_bytes(config.users, config.max_slots));
}

TEST(TraceCacheTest, EvictsLeastRecentlyUsedOverBudget) {
  const ScenarioConfig a = small_scenario(1);
  const ScenarioConfig b = small_scenario(2);
  const ScenarioConfig c = small_scenario(3);
  const std::size_t entry_bytes =
      SignalTraceSet::estimate_bytes(a.users, a.max_slots);
  TraceCache cache(2 * entry_bytes);  // room for two entries

  (void)cache.get_or_generate(a);
  // Held across its eviction, and read only partly, as a cell that stopped
  // early leaves it.
  const std::shared_ptr<const SignalTraceSet> evicted = cache.get_or_generate(b);
  (void)evicted->row(0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  (void)cache.get_or_generate(a);  // touch a: b becomes the LRU victim
  (void)cache.get_or_generate(c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  const std::uint64_t misses = cache.misses();
  (void)cache.get_or_generate(a);  // still resident
  EXPECT_EQ(cache.misses(), misses);
  const std::shared_ptr<const SignalTraceSet> served = cache.get_or_generate(b);
  EXPECT_EQ(cache.misses(), misses + 1);  // evicted: created anew
  EXPECT_NE(served.get(), evicted.get());
  EXPECT_EQ(std::memcmp(served->signal_data(), evicted->signal_data(), evicted->total_bytes()),
            0);
}

TEST(TraceCacheTest, MostRecentEntrySurvivesATinyBudget) {
  TraceCache cache(/*max_bytes=*/1);  // smaller than any entry
  const ScenarioConfig config = small_scenario();
  const auto set = cache.get_or_generate(config);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(cache.size(), 1u);  // kept despite the budget
  (void)cache.get_or_generate(small_scenario(99));
  EXPECT_EQ(cache.size(), 1u);  // previous entry gave way
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(TraceCacheTest, ShrinkingTheBudgetEvicts) {
  const ScenarioConfig a = small_scenario(1);
  const ScenarioConfig b = small_scenario(2);
  TraceCache cache;
  (void)cache.get_or_generate(a);
  (void)cache.get_or_generate(b);
  EXPECT_EQ(cache.size(), 2u);
  cache.set_max_bytes(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.max_bytes(), 1u);
}

TEST(TraceCacheTest, ClearEmptiesTheCache) {
  TraceCache cache;
  (void)cache.get_or_generate(small_scenario());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

}  // namespace
}  // namespace jstream
