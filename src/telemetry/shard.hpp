// Per-thread shards for the telemetry metrics.
//
// Every Counter, Gauge, Histogram and SlotTracer keeps kShardCount copies of
// its state, each on its own cache line, and a thread records only into its
// own copy. Reads merge the copies. Recording on the slot path is therefore a
// few writes to a line no other thread writes: no lock, no contended
// read-modify-write, and no cache line bouncing between the cores of a
// campaign pool.
//
// A thread leases a shard on its first record and returns it when it exits,
// so pools created one after another reuse the same shards. The first
// kShardCount - 1 concurrently live recording threads each own a shard; any
// further thread records into the shared last shard, which stays correct
// (atomic read-modify-writes, and a lock in the tracer) but may contend.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace jstream::telemetry {

/// Cache line size the shards are separated by.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Shards per metric; the last one is shared (see the file comment).
inline constexpr std::size_t kShardCount = 16;
inline constexpr std::size_t kSharedShard = kShardCount - 1;

/// One value alone on its cache line.
template <typename T>
struct alignas(kCacheLineBytes) Padded {
  T value{};
};

namespace detail {

inline constexpr std::size_t kNoShard = kShardCount;

/// The calling thread's shard, kNoShard until it first records.
inline thread_local std::size_t t_shard = kNoShard;

/// Leases a shard for the calling thread until it exits.
std::size_t lease_shard() noexcept;

}  // namespace detail

/// The calling thread's shard index, in [0, kShardCount).
[[nodiscard]] inline std::size_t this_thread_shard() noexcept {
  const std::size_t shard = detail::t_shard;
  return shard != detail::kNoShard ? shard : detail::lease_shard();
}

/// Adds `delta` to a cell of `shard`. A leased shard has one writer, so a
/// plain load and store suffice; the shared shard needs the atomic add.
inline void shard_add(std::atomic<std::int64_t>& cell, std::int64_t delta,
                      std::size_t shard) noexcept {
  if (shard == kSharedShard) {
    cell.fetch_add(delta, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
}

/// shard_add for a double cell.
inline void shard_add(std::atomic<double>& cell, double delta, std::size_t shard) noexcept {
  if (shard == kSharedShard) {
    double expected = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
    }
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
}

/// Monotonic nanosecond stamp (a steady_clock read) ordering records across
/// shards.
[[nodiscard]] std::int64_t order_stamp() noexcept;

}  // namespace jstream::telemetry
