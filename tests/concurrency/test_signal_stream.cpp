// Signal streams under concurrency (runs in the TSan configuration via the
// `concurrency` label). A stream's one reader races the look-ahead it posts to
// its pool: every row the reader sees must equal the eager generate's byte
// for byte, whichever thread walked it. When no worker is free the reader
// fills its rows itself and never waits for a queued task, and a look-ahead
// that runs after its stream is gone does nothing.

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <latch>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "radio/signal_model.hpp"
#include "radio/signal_trace.hpp"
#include "telemetry/registry.hpp"

namespace jstream {
namespace {

// 2048 users make 16-row blocks (SignalTraceSet.StreamBlockSizeFollowsTheByteBudget),
// so a short run crosses many blocks.
constexpr std::size_t kUsers = 2048;
constexpr std::int64_t kSlots = 9 * 16 + 5;

std::vector<std::unique_ptr<SignalModel>> models(std::uint64_t seed) {
  std::vector<std::unique_ptr<SignalModel>> out;
  for (std::size_t user = 0; user < kUsers; ++user) {
    out.push_back(std::make_unique<GaussMarkovSignalModel>(GaussMarkovSignalModel::Params{},
                                                           Rng(seed).split(user)));
  }
  return out;
}

std::shared_ptr<const SignalTraceSet> eager(std::uint64_t seed) {
  std::vector<std::unique_ptr<SignalModel>> owned = models(seed);
  std::vector<SignalModel*> raw;
  for (const auto& model : owned) raw.push_back(model.get());
  ThreadPool pool(2);
  return SignalTraceSet::generate(raw, kSlots, pool);
}

/// Reads every row of a fresh stream in order, yielding `pause` times after
/// each, and returns how many differ from `reference`.
std::int64_t read_stream(const SignalTraceSet& reference, std::uint64_t seed, int pause) {
  const auto stream = SignalTraceSet::stream(models(seed), kSlots);
  std::int64_t mismatches = 0;
  for (std::int64_t slot = 0; slot < kSlots; ++slot) {
    if (std::memcmp(stream->row(slot), reference.row(slot), kUsers * sizeof(double)) != 0) {
      ++mismatches;
    }
    for (int y = 0; y < pause; ++y) std::this_thread::yield();
  }
  return mismatches;
}

std::int64_t counter(const char* name) {
  return telemetry::global_registry().counter(name).value();
}

TEST(SignalStream, ReaderRacesTheLookAheadOnFourWorkers) {
  const auto reference = eager(11);
  ThreadPool pool(4);
  // The reader is one of the pool's workers, so its look-aheads go to the
  // other three. A reader that pauses between rows lets the look-ahead run
  // ahead; one that does not keeps catching it mid-walk.
  for (const int pause : {0, 1, 8}) {
    const std::int64_t mismatches =
        pool.submit([&] { return read_stream(*reference, 11, pause); }).get();
    EXPECT_EQ(mismatches, 0) << "pause " << pause;
  }
}

TEST(SignalStream, SaturatedPoolLeavesTheReaderToFillItsOwnRows) {
  const auto reference = eager(12);
  std::latch release(1);  // outlives the pool, whose workers wait on it
  ThreadPool pool(4);
  for (std::size_t w = 0; w + 1 < pool.size(); ++w) pool.post([&release] { release.wait(); });
  const std::int64_t reader_rows_before = counter("trace.stream_reader_fills");
  // Every other worker is held, so each look-ahead the reader posts stays
  // queued behind them: the reader walks every row itself, and returns
  // without waiting for any of them.
  std::future<std::int64_t> read =
      pool.submit([&] { return read_stream(*reference, 12, 0); });
  EXPECT_EQ(read.get(), 0);
  if (telemetry::enabled()) {
    EXPECT_EQ(counter("trace.stream_reader_fills") - reader_rows_before, kSlots);
  }
  release.count_down();
}

TEST(SignalStream, LookAheadQueuedPastItsStreamDoesNothing) {
  const auto reference = eager(13);
  std::int64_t blocks_after_reader = 0;
  {
    // One worker: the reader's look-aheads queue behind the reader itself,
    // so every one of them runs after its stream is destroyed.
    ThreadPool pool(1);
    const std::int64_t mismatches = pool.submit([&] {
                                          const std::int64_t result =
                                              read_stream(*reference, 13, 0);
                                          blocks_after_reader = counter("trace.stream_blocks");
                                          return result;
                                        })
                                        .get();
    EXPECT_EQ(mismatches, 0);
  }  // drains the queued look-aheads
  EXPECT_EQ(counter("trace.stream_blocks"), blocks_after_reader);
}

}  // namespace
}  // namespace jstream
