#include "telemetry/shard.hpp"

#include <bit>
#include <chrono>

#include "common/units.hpp"

namespace jstream::telemetry {

namespace {

static_assert(kSharedShard < 32, "the lease mask holds one bit per leasable shard");

constexpr std::uint32_t kLeasableMask = (std::uint32_t{1} << kSharedShard) - 1;

/// Bit s is set while a live thread owns shard s.
std::atomic<std::uint32_t> g_leased{0};

/// Returns the calling thread's shard to the pool when the thread exits.
struct ShardLease {
  std::size_t shard = detail::kNoShard;

  ShardLease() = default;
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;
  ~ShardLease() {
    if (shard < kSharedShard) {
      // Release: the next owner sees every write this thread made.
      g_leased.fetch_and(~(std::uint32_t{1} << shard), std::memory_order_release);
    }
    detail::t_shard = detail::kNoShard;
  }
};

thread_local ShardLease t_lease;

}  // namespace

namespace detail {

std::size_t lease_shard() noexcept {
  std::uint32_t leased = g_leased.load(std::memory_order_relaxed);
  std::size_t shard = kSharedShard;
  for (;;) {
    const std::uint32_t free = ~leased & kLeasableMask;
    if (free == 0) break;
    const std::size_t bit = checked_size(std::countr_zero(free));
    // Acquire: this thread sees every write the previous owner made.
    if (g_leased.compare_exchange_weak(leased, leased | (std::uint32_t{1} << bit),
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      shard = bit;
      break;
    }
  }
  t_lease.shard = shard;
  t_shard = shard;
  return shard;
}

}  // namespace detail

std::int64_t order_stamp() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace jstream::telemetry
