// Thread-safe metric primitives for the telemetry subsystem.
//
// Three metric kinds cover the instrumentation needs of the gateway/sim
// stack:
//
//   Counter   — monotonic event count;
//   Gauge     — last-written scalar;
//   Histogram — fixed-bucket distribution with quantile extraction.
//
// Each metric keeps one cache-line-separated copy of its state per thread
// shard (telemetry/shard.hpp): recording writes only the calling thread's
// copy, without a lock, and reads merge the copies into exact totals. So
// concurrent recorders from the thread_pool neither block nor slow each
// other down.
//
// All operations are observation-only: recording never throws, never
// allocates after construction, and is a no-op while telemetry is disabled
// (see telemetry::set_enabled in registry.hpp). Metrics are owned by a
// Registry and outlive every caller, so hot paths may cache references.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "telemetry/shard.hpp"

namespace jstream::telemetry {

namespace detail {

/// The switch set_enabled() flips; read on every record, written rarely.
inline std::atomic<bool> g_enabled{true};

}  // namespace detail

/// Global on/off switch shared by every metric; see set_enabled().
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic event counter.
class Counter {
 public:
  /// Adds `delta` (default one event) to the calling thread's shard. Safe
  /// from any thread.
  void add(std::int64_t delta = 1) noexcept {
    if (!enabled()) return;
    const std::size_t shard = this_thread_shard();
    shard_add(shards_[shard].value, delta, shard);
  }

  /// Sum over the shards.
  [[nodiscard]] std::int64_t value() const noexcept;

  /// Zeroes the counter (used by Registry::reset_values).
  void reset() noexcept;

 private:
  std::array<Padded<std::atomic<std::int64_t>>, kShardCount> shards_;
};

/// Last-written scalar value.
class Gauge {
 public:
  /// Stores `value` in the calling thread's shard with an order_stamp();
  /// value() reports the most recently stamped store.
  void set(double value) noexcept;

  /// Adds `delta` to the current value. One compare-exchange loop on a cell
  /// every thread shares: exact under concurrent adders, but keep it off the
  /// slot path. A later set() replaces what was added.
  void add(double delta) noexcept;

  [[nodiscard]] double value() const noexcept;

  void reset() noexcept;

 private:
  struct Cell {
    std::atomic<double> value{0.0};
    std::atomic<std::int64_t> stamp{0};  ///< 0 until the first set()
  };
  std::array<Padded<Cell>, kShardCount> shards_;
  std::atomic<double> added_{0.0};  ///< add() total since the last set()
};

/// Fixed-bucket histogram with linear-interpolated quantiles.
///
/// `upper_bounds` are the inclusive upper edges of the buckets, strictly
/// increasing; one implicit overflow bucket catches everything above the
/// last edge. Each thread shard holds its own bucket counts and sum, so
/// concurrent observe() calls scale across threads.
class Histogram {
 public:
  /// Throws jstream::Error when `upper_bounds` is empty or not strictly
  /// increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records one observation into the calling thread's shard. Lock-free;
  /// safe from any thread.
  void observe(double value) noexcept;

  [[nodiscard]] std::int64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;

  /// Point-in-time copy of the distribution, merged over the shards;
  /// `total` is the sum of `counts`.
  struct Snapshot {
    std::vector<double> upper_bounds;   ///< bucket edges (no overflow edge)
    std::vector<std::int64_t> counts;   ///< upper_bounds.size() + 1 entries
    std::int64_t total = 0;
    double sum = 0.0;

    /// Quantile q in [0, 1], linearly interpolated inside the bucket that
    /// contains the target rank. Values in the overflow bucket report the
    /// last finite edge. Returns 0 for an empty histogram.
    [[nodiscard]] double quantile(double q) const;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Convenience quantile over a fresh snapshot.
  [[nodiscard]] double quantile(double q) const { return snapshot().quantile(q); }

  [[nodiscard]] std::span<const double> upper_bounds() const noexcept {
    return bounds_;
  }

  /// Zeroes all buckets (used by Registry::reset_values).
  void reset() noexcept;

 private:
  /// One shard's bucket counts: lines_per_shard_ whole cache lines.
  struct alignas(kCacheLineBytes) Line {
    std::atomic<std::int64_t> cells[kCacheLineBytes / sizeof(std::int64_t)]{};
  };

  [[nodiscard]] std::atomic<std::int64_t>& bucket(std::size_t shard,
                                                  std::size_t index) noexcept;
  [[nodiscard]] const std::atomic<std::int64_t>& bucket(std::size_t shard,
                                                        std::size_t index) const noexcept;

  std::vector<double> bounds_;
  std::size_t lines_per_shard_ = 0;
  std::vector<Line> lines_;  ///< kShardCount * lines_per_shard_
  std::array<Padded<std::atomic<double>>, kShardCount> sums_;
};

/// `count` edges: start, start*factor, start*factor^2, ... Requires
/// start > 0, factor > 1, count >= 1.
[[nodiscard]] std::vector<double> exponential_buckets(double start, double factor,
                                                      std::size_t count);

/// `count` edges: start, start+step, ... Requires step > 0, count >= 1.
[[nodiscard]] std::vector<double> linear_buckets(double start, double step,
                                                 std::size_t count);

/// Default edges for latency histograms in microseconds: exponential from
/// 0.5 us to ~8.4 s (25 buckets), wide enough for a scheduler decision and a
/// whole simulation run alike.
[[nodiscard]] const std::vector<double>& default_latency_buckets_us();

}  // namespace jstream::telemetry
