// Measurement plumbing shared by the untraced and traced benchmark programs:
// the host clock, order statistics, the output digest, the result printer
// and the host/build description every result carries.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.hpp"

namespace perfbench {

/// Host time in seconds on the monotonic clock.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the middle pair for even counts). Requires a sample.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it, q in (0, 1]. Requires a sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Samples strictly after the nearest-rank position of q in a sorted set of
/// `count` samples; a reported percentile needs at least ten of them.
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double q);

/// FNV-1a over the bit patterns of simulation outputs. Computed here, over
/// the RunMetrics / ServiceMetrics fields themselves, so the benchmark's
/// correctness check does not depend on any digest helper in the library.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t len);
  void add(double value) { add_bytes(&value, sizeof(value)); }
  void add(std::int64_t value) { add_bytes(&value, sizeof(value)); }
  void add(std::uint64_t value) { add_bytes(&value, sizeof(value)); }
  void add(bool value) { add(static_cast<std::int64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of every simulated output of a batch run: slot count, per-user
/// totals and the per-slot series (the solver certificate is left out; it
/// describes the solver, not the stream).
[[nodiscard]] std::uint64_t digest(const jstream::RunMetrics& run);

/// Digest of a service run: its batch layer plus every session-flow counter
/// and steady-state sum.
[[nodiscard]] std::uint64_t digest(const jstream::RunMetrics& run,
                                   const jstream::ServiceMetrics& service);

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// One named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result: the four keys of its last output line, plus the
/// host/build description and free-form details written to the result file.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> details;
  std::vector<std::string> errors;

  /// Marks the run incorrect and records why.
  void fail(const std::string& why);
};

/// Prints the result as one JSON object on one line of standard output:
/// {"correct", "attempted", "failed", "metrics", "environment", "details",
/// "errors"}. The runner keeps the first four keys for its last line.
void print_result(const Result& result, const std::string& workload,
                  std::uint64_t seed, const std::string& telemetry);

}  // namespace perfbench
