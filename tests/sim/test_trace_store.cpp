// Persistent trace tier correctness: spill/promote round trips are
// bit-identical, corrupt or mismatched files degrade to regeneration (never
// a crash, never wrong data), and the TraceCache integration spills on
// eviction / flush and promotes on miss with zero regenerations when warm.

#include "sim/trace_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"
#include "radio/link_model.hpp"
#include "radio/signal_trace_io.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"

namespace jstream {
namespace {

class TraceStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("jstream_store_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

ScenarioConfig small_scenario(std::uint64_t seed = 21) {
  ScenarioConfig config = paper_scenario(/*users=*/6, seed);
  config.max_slots = 200;
  return config;
}

void expect_identical_sets(const SignalTraceSet& a, const SignalTraceSet& b) {
  ASSERT_EQ(a.users(), b.users());
  ASSERT_EQ(a.slots(), b.slots());
  EXPECT_EQ(std::memcmp(a.signal_data(), b.signal_data(), a.total_bytes()), 0);
}

/// Writes `set` as a version-1 trace-set file: the layout this store read
/// before version 2, whose payload also carried the derived throughput and
/// energy matrices after the signal matrix. Header and payload checksums are
/// valid, so only the schema version can reject it.
void write_version_one_file(const std::string& path, const SignalTraceSet& set,
                            std::uint64_t fingerprint) {
  const std::size_t matrix_bytes = set.total_bytes();
  std::vector<double> payload(3 * set.users() * checked_size(set.slots()));
  std::memcpy(payload.data(), set.signal_data(), matrix_bytes);
  const LinkModel link = make_paper_link_model();
  const std::size_t cells = set.users() * checked_size(set.slots());
  for (std::size_t i = 0; i < cells; ++i) {
    payload[cells + i] = link.throughput->throughput_kbps(set.signal_data()[i]);
    payload[2 * cells + i] = link.power->energy_per_kb(set.signal_data()[i]);
  }
  unsigned char header[64] = {};
  const auto put = [&header](std::size_t offset, auto value) {
    std::memcpy(header + offset, &value, sizeof(value));
  };
  std::memcpy(header, "JSTRTRC1", 8);
  put(8, std::uint32_t{1});           // schema version
  put(12, std::uint32_t{0x01020304});  // endianness tag
  put(16, fingerprint);
  put(24, std::uint64_t{set.users()});
  put(32, set.slots());
  put(40, std::uint64_t{3 * matrix_bytes});
  put(48, xxh64(payload.data(), 3 * matrix_bytes));
  put(56, xxh64(header, 56));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(3 * matrix_bytes));
  ASSERT_TRUE(out.good());
}

TEST_F(TraceStoreTest, SpillPromoteRoundTripIsBitIdentical) {
  TraceStore store(dir_);
  const ScenarioConfig scenario = small_scenario();
  const std::uint64_t fp = trace_key_fingerprint(make_trace_key(scenario));
  const std::shared_ptr<const SignalTraceSet> generated =
      generate_signal_trace_set(scenario);

  EXPECT_FALSE(store.contains(fp));
  EXPECT_EQ(store.try_load(fp, scenario.users, scenario.max_slots), nullptr);
  EXPECT_TRUE(store.put(fp, *generated));
  EXPECT_TRUE(store.contains(fp));
  EXPECT_FALSE(store.put(fp, *generated));  // idempotent: second put skips
  EXPECT_EQ(store.spills(), 1u);

  const std::shared_ptr<const SignalTraceSet> promoted =
      store.try_load(fp, scenario.users, scenario.max_slots);
  ASSERT_NE(promoted, nullptr);
  EXPECT_TRUE(promoted->mapped());
  expect_identical_sets(*generated, *promoted);
  EXPECT_EQ(store.promotions(), 1u);
  EXPECT_EQ(store.rejections(), 0u);
}

// A cache miss's set fills on read. Spilling one that cells read only part
// of must store the complete matrix: the file a partly-read set writes is the
// eager set's file byte for byte (same version, header and payload), and it
// loads back as the full eager matrix.
TEST_F(TraceStoreTest, PartlyFilledSetRoundTripsAsTheFullMatrix) {
  ScenarioConfig scenario = small_scenario();
  scenario.max_slots = 3 * SignalTraceSet::kFillBlockSlots + 11;
  const std::uint64_t fp = trace_key_fingerprint(make_trace_key(scenario));
  TraceCache cache;
  const std::shared_ptr<const SignalTraceSet> partial = cache.get_or_generate(scenario);
  (void)partial->row(SignalTraceSet::kFillBlockSlots + 3);
  ASSERT_EQ(partial->filled_slots(), 2 * SignalTraceSet::kFillBlockSlots);

  TraceStore store(dir_ + "/partial");
  TraceStore eager_store(dir_ + "/eager");
  const std::shared_ptr<const SignalTraceSet> eager = generate_signal_trace_set(scenario);
  ASSERT_TRUE(store.put(fp, *partial));
  ASSERT_TRUE(eager_store.put(fp, *eager));
  EXPECT_EQ(partial->filled_slots(), scenario.max_slots);

  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  };
  const std::vector<char> written = file_bytes(store.path_for(fp));
  ASSERT_FALSE(written.empty());
  EXPECT_EQ(written, file_bytes(eager_store.path_for(fp)));

  const std::shared_ptr<const SignalTraceSet> loaded =
      store.try_load(fp, scenario.users, scenario.max_slots);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->mapped());
  expect_identical_sets(*loaded, *eager);
}

TEST_F(TraceStoreTest, CorruptFileIsDroppedAndReportedAsMiss) {
  TraceStore store(dir_);
  const ScenarioConfig scenario = small_scenario();
  const std::uint64_t fp = trace_key_fingerprint(make_trace_key(scenario));
  ASSERT_TRUE(store.put(fp, *generate_signal_trace_set(scenario)));

  // Flip one payload byte behind the checksum's back.
  {
    std::fstream file(store.path_for(fp),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(64 + 3);
    const char byte = 0x7f;
    file.write(&byte, 1);
  }
  EXPECT_EQ(store.try_load(fp, scenario.users, scenario.max_slots), nullptr);
  EXPECT_EQ(store.rejections(), 1u);
  // The poisoned file was unlinked so a fresh spill can land.
  EXPECT_FALSE(store.contains(fp));
  EXPECT_TRUE(store.put(fp, *generate_signal_trace_set(scenario)));
  EXPECT_NE(store.try_load(fp, scenario.users, scenario.max_slots), nullptr);
}

TEST_F(TraceStoreTest, DimensionDisagreementRejects) {
  TraceStore store(dir_);
  const ScenarioConfig scenario = small_scenario();
  const std::uint64_t fp = trace_key_fingerprint(make_trace_key(scenario));
  ASSERT_TRUE(store.put(fp, *generate_signal_trace_set(scenario)));
  EXPECT_EQ(store.try_load(fp, scenario.users + 1, scenario.max_slots), nullptr);
  EXPECT_EQ(store.rejections(), 1u);
}

TEST_F(TraceStoreTest, VersionOneFileIsRejectedByNameAndRegenerated) {
  TraceStore store(dir_);
  const ScenarioConfig scenario = small_scenario();
  const std::uint64_t fp = trace_key_fingerprint(make_trace_key(scenario));
  const std::shared_ptr<const SignalTraceSet> reference =
      generate_signal_trace_set(scenario);
  write_version_one_file(store.path_for(fp), *reference, fp);
  try {
    (void)probe_trace_set(store.path_for(fp));
    ADD_FAILURE() << "a version-1 file passed validation";
  } catch (const TraceFileError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported schema version"), std::string::npos)
        << e.what();
  }

  // The cache's miss consults the store, which drops the file; the set is
  // regenerated, and the end-of-run spill lands a version-2 file in its place.
  TraceCache cache;
  cache.attach_store(&store);
  const std::shared_ptr<const SignalTraceSet> served = cache.get_or_generate(scenario);
  EXPECT_EQ(store.rejections(), 1u);
  EXPECT_EQ(cache.promotions(), 0u);
  EXPECT_EQ(cache.generations(), 1u);
  EXPECT_FALSE(served->mapped());
  expect_identical_sets(*reference, *served);
  cache.spill_resident();
  EXPECT_EQ(probe_trace_set(store.path_for(fp)).version, kTraceSetFileVersion);
  EXPECT_EQ(probe_trace_set(store.path_for(fp)).payload_bytes, reference->total_bytes());
}

TEST_F(TraceStoreTest, RejectsUnusableDirectory) {
  EXPECT_THROW(TraceStore(""), Error);
  EXPECT_THROW(TraceStore("/proc/no/such/dir"), Error);
}

TEST_F(TraceStoreTest, CacheSpillsOnEvictionAndPromotesOnMiss) {
  TraceStore store(dir_);
  // Budget of one entry: inserting the second scenario evicts (and spills)
  // the first.
  const ScenarioConfig first = small_scenario(21);
  const ScenarioConfig second = small_scenario(22);
  TraceCache cache(SignalTraceSet::estimate_bytes(first.users, first.max_slots));
  cache.attach_store(&store);

  const std::shared_ptr<const SignalTraceSet> generated =
      cache.get_or_generate(first);
  EXPECT_EQ(cache.generations(), 1u);
  (void)cache.get_or_generate(second);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(store.spills(), 1u);
  EXPECT_TRUE(store.contains(trace_key_fingerprint(make_trace_key(first))));

  // Touching the first scenario again misses the LRU but promotes from disk:
  // no regeneration, bit-identical data.
  const std::shared_ptr<const SignalTraceSet> promoted =
      cache.get_or_generate(first);
  EXPECT_EQ(cache.generations(), 2u);  // only the two cold generations
  EXPECT_EQ(cache.promotions(), 1u);
  EXPECT_TRUE(promoted->mapped());
  expect_identical_sets(*generated, *promoted);
}

TEST_F(TraceStoreTest, SpillResidentFlushesTheWholeWorkingSet) {
  TraceStore store(dir_);
  TraceCache cache;  // default budget: nothing evicts
  cache.attach_store(&store);
  const ScenarioConfig first = small_scenario(31);
  const ScenarioConfig second = small_scenario(32);
  (void)cache.get_or_generate(first);
  (void)cache.get_or_generate(second);
  EXPECT_EQ(store.spills(), 0u);  // no evictions yet, nothing written
  cache.spill_resident();
  EXPECT_EQ(store.spills(), 2u);
  EXPECT_TRUE(store.contains(trace_key_fingerprint(make_trace_key(first))));
  EXPECT_TRUE(store.contains(trace_key_fingerprint(make_trace_key(second))));
  cache.spill_resident();  // idempotent: files already present
  EXPECT_EQ(store.spills(), 2u);
}

TEST_F(TraceStoreTest, CampaignStoreOptionWarmsTheStore) {
  TraceStore store(dir_);
  const std::vector<CampaignSeries> series = {{"default", "default", {}},
                                              {"rtma", "rtma", {}}};
  const std::vector<ExperimentSpec> specs =
      make_campaign_grid(small_scenario(41), series, /*replications=*/2);

  TraceCache cold_cache;
  CampaignOptions cold;
  cold.threads = 2;
  cold.cache = &cold_cache;
  cold.store = &store;
  const std::vector<RunMetrics> cold_results = run_campaign(specs, cold);
  EXPECT_EQ(cold_cache.generations(), 2u);  // one per seed
  EXPECT_EQ(store.spills(), 2u);            // end-of-run flush persisted both
  EXPECT_EQ(cold_cache.store(), nullptr);   // attachment is scoped to the run

  // A fresh cache over a warm store: every miss promotes, nothing generates.
  TraceCache warm_cache;
  CampaignOptions warm = cold;
  warm.cache = &warm_cache;
  const std::vector<RunMetrics> warm_results = run_campaign(specs, warm);
  EXPECT_EQ(warm_cache.generations(), 0u);
  EXPECT_EQ(warm_cache.promotions(), 2u);
  ASSERT_EQ(warm_results.size(), cold_results.size());
  for (std::size_t i = 0; i < warm_results.size(); ++i) {
    EXPECT_EQ(warm_results[i].slots_run, cold_results[i].slots_run);
    EXPECT_EQ(warm_results[i].total_energy_mj(), cold_results[i].total_energy_mj());
    EXPECT_EQ(warm_results[i].total_rebuffer_s(), cold_results[i].total_rebuffer_s());
  }
}

}  // namespace
}  // namespace jstream
