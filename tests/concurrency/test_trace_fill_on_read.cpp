// Fill-on-read trace sets under concurrent readers (runs in the TSan
// configuration via the `concurrency` label). A cache miss returns a set
// whose rows fill on first read; campaign cells that share it read it from
// different workers, each at its own pace, and a whole-matrix reader (a
// byte comparison) may fill the rest while they run. Every row every reader
// sees must equal the eager generate_signal_trace_set's byte for byte,
// whichever reader filled it, and the frontier must end where the furthest
// read put it.

#include "sim/trace_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/scenario.hpp"

namespace jstream {
namespace {

constexpr std::size_t kReaders = 4;
constexpr std::int64_t kSlots = 6 * SignalTraceSet::kFillBlockSlots + 19;

ScenarioConfig scenario(SignalKind kind) {
  ScenarioConfig config = paper_scenario(/*users=*/8, /*seed=*/4242);
  config.max_slots = kSlots;
  config.signal_kind = kind;
  if (kind == SignalKind::kTrace) {
    for (int i = 0; i < 300; ++i) config.trace_dbm.push_back(-100.0 + 0.13 * i);
  }
  return config;
}

TEST(TraceFillOnRead, FourReadersAtDifferentPacesSeeTheEagerBytes) {
  const std::pair<SignalKind, std::string> kinds[] = {
      {SignalKind::kSine, "sine"},
      {SignalKind::kGaussMarkov, "gauss-markov"},
      {SignalKind::kTrace, "trace"}};
  for (const auto& [kind, label] : kinds) {
    const ScenarioConfig config = scenario(kind);
    const std::shared_ptr<const SignalTraceSet> eager = generate_signal_trace_set(config);
    TraceCache cache;
    const std::shared_ptr<const SignalTraceSet> lazy = cache.get_or_generate(config);
    ASSERT_EQ(lazy->filled_slots(), 0) << label;

    const std::size_t row_bytes = config.users * sizeof(double);
    std::vector<std::int64_t> mismatches(kReaders, 0);
    std::latch start(kReaders);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        start.arrive_and_wait();
        // Reader t reads every (t + 1)-th row and yields t times between
        // reads, so the readers race for the frontier at different paces.
        const std::int64_t stride = checked_index(t + 1);
        for (std::int64_t slot = 0; slot < kSlots; slot += stride) {
          if (std::memcmp(lazy->row(slot), eager->row(slot), row_bytes) != 0) {
            ++mismatches[t];
          }
          for (std::size_t y = 0; y < t; ++y) std::this_thread::yield();
        }
      });
    }
    for (std::thread& reader : readers) reader.join();

    for (std::size_t t = 0; t < kReaders; ++t) {
      EXPECT_EQ(mismatches[t], 0) << label << " reader " << t;
    }
    EXPECT_EQ(lazy->filled_slots(), kSlots) << label;
    EXPECT_EQ(std::memcmp(lazy->signal_data(), eager->signal_data(), eager->total_bytes()), 0)
        << label;
  }
}

// signal_data() fills the rest of the matrix on its own thread while holding
// the set's mutex; row readers racing it must still see the eager bytes, and
// the fill must not wait on them.
TEST(TraceFillOnRead, WholeMatrixFillRacesRowReaders) {
  const ScenarioConfig config = scenario(SignalKind::kSine);
  const std::shared_ptr<const SignalTraceSet> eager = generate_signal_trace_set(config);
  TraceCache cache;
  const std::shared_ptr<const SignalTraceSet> lazy = cache.get_or_generate(config);

  const std::size_t row_bytes = config.users * sizeof(double);
  std::vector<std::int64_t> mismatches(kReaders, 0);
  std::latch start(kReaders);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      if (t == 0) {
        if (std::memcmp(lazy->signal_data(), eager->signal_data(), eager->total_bytes()) != 0) {
          ++mismatches[t];
        }
        return;
      }
      for (std::int64_t slot = checked_index(t); slot < kSlots; slot += 3) {
        if (std::memcmp(lazy->row(slot), eager->row(slot), row_bytes) != 0) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kReaders; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  EXPECT_EQ(lazy->filled_slots(), kSlots);
}

}  // namespace
}  // namespace jstream
