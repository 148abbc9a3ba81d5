#include "telemetry/metric.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream::telemetry {

namespace {

constexpr std::size_t kCellsPerLine = kCacheLineBytes / sizeof(std::int64_t);

}  // namespace

std::int64_t Counter::value() const noexcept {
  std::int64_t total = 0;
  for (const auto& shard : shards_) total += shard.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
}

void Gauge::set(double value) noexcept {
  if (!enabled()) return;
  Cell& cell = shards_[this_thread_shard()].value;
  cell.value.store(value, std::memory_order_relaxed);
  // Release: a reader that sees the stamp sees the value stored with it.
  cell.stamp.store(order_stamp(), std::memory_order_release);
  // Nothing on the slot path adds, so this is a read of a line no thread
  // writes; the store happens only after an add().
  if (added_.load(std::memory_order_relaxed) != 0.0) {
    added_.store(0.0, std::memory_order_relaxed);
  }
}

void Gauge::add(double delta) noexcept {
  if (!enabled()) return;
  double expected = added_.load(std::memory_order_relaxed);
  while (!added_.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

double Gauge::value() const noexcept {
  std::int64_t newest = 0;
  double value = 0.0;
  for (const auto& shard : shards_) {
    const std::int64_t stamp = shard.value.stamp.load(std::memory_order_acquire);
    if (stamp > newest) {
      newest = stamp;
      value = shard.value.value.load(std::memory_order_relaxed);
    }
  }
  return value + added_.load(std::memory_order_relaxed);
}

void Gauge::reset() noexcept {
  for (auto& shard : shards_) {
    shard.value.value.store(0.0, std::memory_order_relaxed);
    shard.value.stamp.store(0, std::memory_order_relaxed);
  }
  added_.store(0.0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      lines_per_shard_((bounds_.size() + kCellsPerLine) / kCellsPerLine),
      lines_(kShardCount * lines_per_shard_) {
  require(!bounds_.empty(), "histogram needs at least one bucket edge");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    require(bounds_[i - 1] < bounds_[i],
            "histogram bucket edges must be strictly increasing");
  }
}

std::atomic<std::int64_t>& Histogram::bucket(std::size_t shard,
                                             std::size_t index) noexcept {
  return lines_[shard * lines_per_shard_ + index / kCellsPerLine]
      .cells[index % kCellsPerLine];
}

const std::atomic<std::int64_t>& Histogram::bucket(std::size_t shard,
                                                   std::size_t index) const noexcept {
  return lines_[shard * lines_per_shard_ + index / kCellsPerLine]
      .cells[index % kCellsPerLine];
}

void Histogram::observe(double value) noexcept {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = checked_size(it - bounds_.begin());
  const std::size_t shard = this_thread_shard();
  shard_add(bucket(shard, idx), 1, shard);
  shard_add(sums_[shard].value, value, shard);
}

std::int64_t Histogram::count() const noexcept {
  std::int64_t total = 0;
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      total += bucket(shard, i).load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0.0;
  for (const auto& shard : sums_) total += shard.value.load(std::memory_order_relaxed);
  return total;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.upper_bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      snap.counts[i] += bucket(shard, i).load(std::memory_order_relaxed);
    }
  }
  for (const std::int64_t count : snap.counts) snap.total += count;
  snap.sum = sum();
  return snap;
}

double Histogram::Snapshot::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "quantile q must lie in [0, 1]");
  if (total <= 0) return 0.0;
  const double target = q * as_double(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto in_bucket = as_double(counts[i]);
    if (in_bucket <= 0.0) continue;
    if (cumulative + in_bucket >= target) {
      if (i >= upper_bounds.size()) return upper_bounds.back();  // overflow
      // Interpolate inside [lower, upper]; the first bucket's lower edge is
      // clamped at zero unless the edges themselves go negative.
      const double upper = upper_bounds[i];
      const double lower =
          i == 0 ? std::min(0.0, upper_bounds.front()) : upper_bounds[i - 1];
      const double fraction =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      return lower + (upper - lower) * fraction;
    }
    cumulative += in_bucket;
  }
  return upper_bounds.back();
}

void Histogram::reset() noexcept {
  for (Line& line : lines_) {
    for (auto& cell : line.cells) cell.store(0, std::memory_order_relaxed);
  }
  for (auto& shard : sums_) shard.value.store(0.0, std::memory_order_relaxed);
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  require(start > 0.0, "exponential buckets need a positive start");
  require(factor > 1.0, "exponential buckets need factor > 1");
  require(count >= 1, "need at least one bucket edge");
  std::vector<double> edges;
  edges.reserve(count);
  double edge = start;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(edge);
    edge *= factor;
  }
  return edges;
}

std::vector<double> linear_buckets(double start, double step, std::size_t count) {
  require(step > 0.0, "linear buckets need a positive step");
  require(count >= 1, "need at least one bucket edge");
  std::vector<double> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(start + step * as_double(i));
  }
  return edges;
}

const std::vector<double>& default_latency_buckets_us() {
  static const std::vector<double> edges = exponential_buckets(0.5, 2.0, 25);
  return edges;
}

}  // namespace jstream::telemetry
