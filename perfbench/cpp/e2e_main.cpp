// Untraced end-to-end run of one workload:
//
//   jstream_perfbench --workload <name> --seed <n> --seconds <s>
//
// Runs the untimed validation pass, then timed rounds until `seconds` have
// passed (at least kMinRounds, and one per input variant), checks every
// round's digests and the workload's shape, and prints one JSON result line
// with the end-to-end metrics. Telemetry stays at the library default (on).
//
// Rounds of one input variant replay the same seeded work, so they are
// repeats. The slot percentiles, set-up time and throughput are taken per
// round, and the run reports them for its slowest rounds (see run()). The
// per-round values go to the result's details.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <numeric>
#include <string>

#include "cli.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Rounds run even when `seconds` is shorter, so every metric is taken over
/// several repeats.
constexpr int kMinRounds = 3;

std::string join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += (out.empty() ? "" : ",") + std::string(buf);
  }
  return out;
}

Result run(Workload workload, std::uint64_t seed, double seconds) {
  Result result;
  std::vector<std::uint64_t> expected;
  try {
    expected = run_validation_pass(workload, seed);
  } catch (const std::exception& e) {
    result.fail(std::string("validation pass: ") + e.what());
  }

  // Per-round statistics. Rounds of one input variant replay the same seeded
  // work, so they are repeats of one measurement; the sweep's rounds cycle
  // through its seed batches.
  const std::size_t variants = round_variants(workload);
  const int min_rounds = std::max(kMinRounds, static_cast<int>(variants));
  std::vector<double> setup_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> s_per_user_slot;
  std::vector<std::vector<std::uint64_t>> first_digests(variants);
  std::vector<double> pe_mj(variants, 0.0);
  std::vector<double> pc_ms(variants, 0.0);
  std::size_t slot_samples = 0;
  const double deadline = now_s() + seconds;
  for (int r = 0; r < min_rounds || now_s() < deadline; ++r) {
    const std::string what = "round " + std::to_string(r);
    const std::size_t variant = static_cast<std::size_t>(r) % variants;
    Round round;
    try {
      round = run_round(workload, seed, variant);
    } catch (const std::exception& e) {
      result.fail(what + ": " + e.what());
      result.attempted += expected_operations(workload);
      result.failed += expected_operations(workload);
      continue;
    }
    if (first_digests[variant].empty()) {
      first_digests[variant] = round.digests;
      pe_mj[variant] = round.pe_mj;
      pc_ms[variant] = round.pc_ms;
      if (variant == 0) slot_samples = round.slot_us.size();
    }
    const bool ok = round.shape_errors.empty() && round.digests == first_digests[variant] &&
                    (variant != 0 || matches_prefix(round.digests, expected));
    for (const std::string& e : round.shape_errors) result.fail(what + ": " + e);
    if (!ok && round.shape_errors.empty()) {
      result.fail(what + ": digest differs from " +
                  (variant == 0 ? "the validation pass" : "the variant's first round"));
    }
    if (samples_beyond(round.slot_us.size(), 0.99) < 10) {
      result.fail(what + ": fewer than ten slot samples beyond p99");
      continue;
    }
    result.attempted += round.operations;
    if (!ok) result.failed += round.operations;
    setup_s.push_back(round.setup_s);
    p50_us.push_back(percentile(round.slot_us, 0.50));
    p99_us.push_back(percentile(round.slot_us, 0.99));
    s_per_user_slot.push_back(round.timed_s / round.user_slots);
  }
  if (expected.empty()) result.failed = result.attempted;
  if (setup_s.empty() ||
      std::any_of(first_digests.begin(), first_digests.end(),
                  [](const std::vector<std::uint64_t>& d) { return d.empty(); })) {
    result.fail("some input variant completed no round");
    return result;
  }

  // On a shared host whole rounds run up to 1.8x slower for seconds to
  // minutes at a time (see README). The slow, contended state shows up in
  // nearly every run, while the share of rounds it takes swings from a few
  // to all, so a run's median or best round flips between host states. The
  // time metrics therefore report the contended state: the slowest round's
  // median slot time, set-up time and throughput, and the median p99 of the
  // slowest tenth of the rounds by median slot time (a round's p99 also
  // catches short bursts that leave its median alone).
  const auto slowest = static_cast<std::size_t>(
      std::max_element(p50_us.begin(), p50_us.end()) - p50_us.begin());
  std::vector<std::size_t> by_median(p50_us.size());
  std::iota(by_median.begin(), by_median.end(), std::size_t{0});
  std::sort(by_median.begin(), by_median.end(),
            [&](std::size_t a, std::size_t b) { return p50_us[a] < p50_us[b]; });
  const std::size_t tenth = std::max<std::size_t>(1, by_median.size() / 10);
  std::vector<double> contended_p99;
  for (std::size_t i = by_median.size() - tenth; i < by_median.size(); ++i) {
    contended_p99.push_back(p99_us[by_median[i]]);
  }
  result.metrics["user_slots_per_s"] = {
      1.0 / *std::max_element(s_per_user_slot.begin(), s_per_user_slot.end()), "1/s"};
  result.metrics["slot_p50_us"] = {p50_us[slowest], "us"};
  result.metrics["slot_p99_us"] = {median(contended_p99), "us"};
  result.metrics["setup_s"] = {*std::max_element(setup_s.begin(), setup_s.end()), "s"};
  result.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  // Every variant holds the same number of cells, so the run's PE/PC are the
  // means over variants.
  result.metrics["pe_mj_per_user_slot"] = {
      std::accumulate(pe_mj.begin(), pe_mj.end(), 0.0) / static_cast<double>(variants), "mJ"};
  result.metrics["pc_ms_per_user_slot"] = {
      std::accumulate(pc_ms.begin(), pc_ms.end(), 0.0) / static_cast<double>(variants), "ms"};
  result.details["rounds"] = std::to_string(setup_s.size());
  result.details["round_slot_samples"] = std::to_string(slot_samples);
  result.details["round_slot_samples_beyond_p99"] =
      std::to_string(samples_beyond(slot_samples, 0.99));
  result.details["round_setup_s"] = join(setup_s);
  result.details["round_p50_us"] = join(p50_us);
  result.details["round_p99_us"] = join(p99_us);
  result.details["round_s_per_user_slot"] = join(s_per_user_slot);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.spans_path.empty()) throw std::invalid_argument("--spans needs the traced program");
    const Result result = run(args.workload, args.seed, args.seconds);
    print_result(result, args.workload_name, args.seed, "on");
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jstream_perfbench: %s\n", e.what());
    return 2;
  }
}
