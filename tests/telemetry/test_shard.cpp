// Per-thread metric shards (telemetry/shard.hpp): leases, reuse after a
// thread exits, the shared overflow shard, and the merged reads of every
// metric kind across shards.
#include "telemetry/shard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "telemetry/metric.hpp"
#include "telemetry/slot_tracer.hpp"

namespace jstream::telemetry {
namespace {

std::size_t shard_of_new_thread() {
  std::size_t shard = kShardCount;
  std::thread([&shard] { shard = this_thread_shard(); }).join();
  return shard;
}

/// Runs `body(t)` on `threads` threads that are all alive at once, so each
/// holds its shard lease while the others record.
template <typename Body>
void run_concurrently_alive(std::size_t threads, Body body) {
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      (void)this_thread_shard();
      arrived.fetch_add(1);
      while (arrived.load() < threads) std::this_thread::yield();
      body(t);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

TEST(TelemetryShard, ExitedThreadsReturnTheirShard) {
  const std::size_t first = shard_of_new_thread();
  EXPECT_LT(first, kSharedShard);
  EXPECT_EQ(shard_of_new_thread(), first);
}

TEST(TelemetryShard, LiveThreadsHoldDistinctShardsUntilTheSharedOne) {
  constexpr std::size_t kThreads = 8;
  std::vector<std::size_t> shards(kThreads, kShardCount);
  run_concurrently_alive(kThreads, [&](std::size_t t) { shards[t] = this_thread_shard(); });
  for (std::size_t a = 0; a < kThreads; ++a) {
    EXPECT_LT(shards[a], kSharedShard);
    for (std::size_t b = a + 1; b < kThreads; ++b) EXPECT_NE(shards[a], shards[b]);
  }
}

TEST(TelemetryShard, MoreThreadsThanShardsStillCountExactly) {
  // More live threads than leasable shards: the overflow threads share the
  // last shard, whose writes are atomic read-modify-writes (and locked in
  // the tracer), so every total stays exact.
  constexpr std::size_t kThreads = kShardCount + 4;
  constexpr std::int64_t kPerThread = 2000;
  Counter counter;
  Histogram histogram({1.0, 2.0, 4.0});
  SlotTracer tracer(32);
  std::atomic<std::size_t> on_shared{0};
  run_concurrently_alive(kThreads, [&](std::size_t t) {
    if (this_thread_shard() == kSharedShard) on_shared.fetch_add(1);
    for (std::int64_t i = 0; i < kPerThread; ++i) {
      counter.add();
      histogram.observe(1.5);
      tracer.record(i, checked_i32(t), TraceEventKind::kGrant, 1.0);
    }
  });
  EXPECT_GE(on_shared.load(), 2u);
  const std::int64_t total = checked_index(kThreads) * kPerThread;
  EXPECT_EQ(counter.value(), total);
  EXPECT_EQ(histogram.count(), total);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1.5 * as_double(total));
  EXPECT_EQ(tracer.total_recorded(), total);
  EXPECT_EQ(tracer.size(), tracer.capacity());
}

TEST(TelemetryShard, GaugeReportsTheLatestSetAcrossThreads) {
  Gauge gauge;
  std::thread([&gauge] { gauge.set(1.0); }).join();
  std::thread([&gauge] { gauge.set(2.0); }).join();
  gauge.set(3.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  std::thread([&gauge] { gauge.set(-4.0); }).join();
  EXPECT_DOUBLE_EQ(gauge.value(), -4.0);
  // add() builds on the latest set; a later set() replaces the sum.
  gauge.add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.5);
  gauge.set(7.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
}

TEST(TelemetryShard, TracerMergesThreadsByTheirSlotsOrder) {
  // Thread A records slots 0-2, then thread B slots 3-5, one after the
  // other: the merged snapshot keeps that order, and a capacity of 4 keeps
  // the newest four events.
  SlotTracer tracer(4);
  std::thread([&tracer] {
    for (std::int64_t slot = 0; slot < 3; ++slot) {
      tracer.record(slot, 0, TraceEventKind::kGrant, 0.0);
    }
  }).join();
  std::thread([&tracer] {
    for (std::int64_t slot = 3; slot < 6; ++slot) {
      tracer.record(slot, 1, TraceEventKind::kGrant, 0.0);
    }
  }).join();
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].slot, checked_index(2 + i));
  }
  EXPECT_EQ(tracer.total_recorded(), 6);
}

}  // namespace
}  // namespace jstream::telemetry
