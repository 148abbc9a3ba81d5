// Checks of the benchmark's own measurement code: the nearest-rank
// percentile and its ten-samples-beyond rule, and digest stability.
//
//   .bench_build/perfbench/perfbench_selftest   (exit 0 = all checks passed)
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "baselines/factory.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> shuffled_range(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

void test_percentiles() {
  const std::vector<double> thousand = shuffled_range(1000);
  check(percentile(thousand, 0.99) == 990.0, "p99 of 1..1000 is 990 (nearest rank)");
  check(samples_beyond(1000, 0.99) == 10, "1000 samples leave ten beyond p99");
  check(samples_beyond(999, 0.99) == 9, "999 samples leave fewer than ten beyond p99");
  check(percentile(thousand, 0.5) == 500.0, "p50 of 1..1000 is 500");
  check(percentile(thousand, 1.0) == 1000.0, "p100 is the maximum");
  check(median(thousand) == 500.5, "median of an even count averages the middle pair");
  check(median(shuffled_range(5)) == 3.0, "median of an odd count is the middle sample");
  bool threw = false;
  try {
    (void)percentile(thousand, 0.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "q = 0 is rejected");
}

jstream::RunMetrics sample_run() {
  jstream::RunMetrics run;
  run.slots_run = 3;
  run.per_user.resize(2);
  run.per_user[0] = {1.5, 0.25, 2.0, 300.0, 3, 2, true};
  run.per_user[1] = {0.5, 0.75, 0.0, 150.0, 3, 1, false};
  run.slot_fairness = {1.0, 0.5, 0.75};
  run.slot_energy_mj = {2.0, 1.0, 0.0};
  run.rebuffer_samples_s = {0.0, 1.0};
  return run;
}

void test_digest() {
  const jstream::RunMetrics run = sample_run();
  // Pinned (an independent FNV-1a over the same little-endian fields): a
  // change to the digest's byte order or fields shows here.
  check(digest(run) == 0x530c4da2896f2a95ULL, "digest of the sample run is pinned");
  check(digest(run) == digest(sample_run()), "equal outputs give equal digests");
  jstream::RunMetrics changed = sample_run();
  changed.per_user[1].tail_mj += 1e-12;
  check(digest(changed) != digest(run), "a tiny change alters the digest");

  jstream::ScenarioConfig config = jstream::paper_scenario(5, 42);
  config.max_slots = 200;
  const std::uint64_t first = digest(jstream::simulate(config, jstream::make_scheduler("ema")));
  const std::uint64_t again = digest(jstream::simulate(config, jstream::make_scheduler("ema")));
  config.seed = 43;
  const std::uint64_t other = digest(jstream::simulate(config, jstream::make_scheduler("ema")));
  check(first == again, "a rerun of the same seed digests equal");
  check(first != other, "another seed digests differently");
}

}  // namespace

int main() {
  test_percentiles();
  test_digest();
  if (failures == 0) std::puts("perfbench selftest: all checks passed");
  return failures == 0 ? 0 : 1;
}
