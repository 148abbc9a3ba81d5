// Persistent trace tier under concurrency (runs in the TSan configuration
// via the `concurrency` label): threads race spills, promotions, and
// evictions against one shared TraceStore — directly on the store, and
// through a tiny-budget TraceCache whose every insert evicts-and-spills
// while other threads promote the same keys back. The store's counters and
// the served matrices must stay consistent; TSan must see no races on the
// spill-outside-the-lock path.

#include "sim/trace_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"

namespace jstream {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed) {
  ScenarioConfig config = paper_scenario(/*users=*/4, seed);
  config.max_slots = 80;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("jstream_storec_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(TraceStoreConcurrent, RacingPutsAndLoadsConverge) {
  const std::string dir = fresh_dir("puts");
  TraceStore store(dir);
  constexpr int kThreads = 8;
  constexpr int kSeeds = 3;

  std::vector<std::uint64_t> fingerprints;
  std::vector<std::shared_ptr<const SignalTraceSet>> sets;
  for (int s = 0; s < kSeeds; ++s) {
    const ScenarioConfig scenario = small_scenario(static_cast<std::uint64_t>(s));
    fingerprints.push_back(trace_key_fingerprint(make_trace_key(scenario)));
    sets.push_back(generate_signal_trace_set(scenario));
  }

  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.fetch_add(1);
      while (start.load() < kThreads) {}  // line the threads up on the store
      for (int round = 0; round < 6; ++round) {
        const std::size_t s = checked_size((t + round) % kSeeds);
        (void)store.put(fingerprints[s], *sets[s]);
        const auto loaded =
            store.try_load(fingerprints[s], sets[s]->users(), sets[s]->slots());
        if (loaded != nullptr) {
          EXPECT_EQ(loaded->signal_dbm(0, 0), sets[s]->signal_dbm(0, 0));
          EXPECT_EQ(loaded->signal_dbm(3, 79), sets[s]->signal_dbm(3, 79));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(store.rejections(), 0u);
  for (int s = 0; s < kSeeds; ++s) {
    EXPECT_TRUE(store.contains(fingerprints[checked_size(s)]));
  }
  std::filesystem::remove_all(dir);
}

TEST(TraceStoreConcurrent, CacheEvictSpillPromoteRaceStaysConsistent) {
  const std::string dir = fresh_dir("evict");
  TraceStore store(dir);
  // A budget of one entry forces every distinct-seed insert to evict (and
  // spill) the previous resident while other threads promote it back.
  const ScenarioConfig probe = small_scenario(0);
  TraceCache cache(SignalTraceSet::estimate_bytes(probe.users, probe.max_slots));
  cache.attach_store(&store);

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        const auto seed = static_cast<std::uint64_t>((t + round) % 4);
        const auto set = cache.get_or_generate(small_scenario(seed));
        ASSERT_NE(set, nullptr);
        EXPECT_EQ(set->users(), probe.users);
        EXPECT_EQ(set->slots(), probe.max_slots);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Nothing on disk was ever invalid, and every distinct key either still
  // sits resident or was spilled on its way out.
  EXPECT_EQ(store.rejections(), 0u);
  EXPECT_EQ(cache.generations() + cache.promotions(), cache.misses());
  cache.spill_resident();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EXPECT_TRUE(store.contains(
        trace_key_fingerprint(make_trace_key(small_scenario(seed)))));
  }
  cache.attach_store(nullptr);
  std::filesystem::remove_all(dir);
}

TEST(TraceStoreConcurrent, SpillResidentRacesLookupsSafely) {
  const std::string dir = fresh_dir("flush");
  TraceStore store(dir);
  TraceCache cache;
  cache.attach_store(&store);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load()) cache.spill_resident();
  });
  std::vector<std::thread> lookups;
  for (int t = 0; t < 4; ++t) {
    lookups.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        const auto seed = static_cast<std::uint64_t>((t * 7 + round) % 5);
        ASSERT_NE(cache.get_or_generate(small_scenario(seed)), nullptr);
      }
    });
  }
  for (std::thread& thread : lookups) thread.join();
  stop.store(true);
  flusher.join();

  cache.spill_resident();
  EXPECT_EQ(store.rejections(), 0u);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    EXPECT_TRUE(store.contains(
        trace_key_fingerprint(make_trace_key(small_scenario(seed)))));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace jstream
