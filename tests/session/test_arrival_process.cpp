// Arrival-process contract: deterministic, seed-pure, order-independent
// counts; the content stream indexed by global arrival order (the purity
// contract of docs/SERVICE.md); fingerprints that isolate campaign cells.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "session/arrival.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

ArrivalConfig poisson_config(double rate, std::uint64_t salt = 0) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kPoisson;
  config.rate_per_slot = rate;
  config.salt = salt;
  return config;
}

TEST(ArrivalProcess, PoissonCountsAreDeterministicAndOrderIndependent) {
  const ArrivalConfig config = poisson_config(0.7);
  const auto a = make_arrival_process(config, /*seed=*/99);
  const auto b = make_arrival_process(config, /*seed=*/99);

  // Query b backwards and with repeats: pure per-slot streams must agree.
  std::vector<std::int64_t> forward;
  for (std::int64_t slot = 0; slot < 200; ++slot) {
    forward.push_back(a->arrivals_at(slot));
  }
  for (std::int64_t slot = 199; slot >= 0; --slot) {
    EXPECT_EQ(b->arrivals_at(slot), forward[checked_size(slot)]);
    EXPECT_EQ(b->arrivals_at(slot), forward[checked_size(slot)]);
  }
}

TEST(ArrivalProcess, PoissonMeanTracksTheConfiguredRate) {
  const double rate = 1.5;
  const auto process = make_arrival_process(poisson_config(rate), 7);
  std::int64_t total = 0;
  const std::int64_t slots = 20000;
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    const std::int64_t count = process->arrivals_at(slot);
    ASSERT_GE(count, 0);
    total += count;
  }
  const double mean = as_double(total) / as_double(slots);
  EXPECT_NEAR(mean, rate, 0.05);
}

TEST(ArrivalProcess, SeedAndSaltDecorrelateStreams) {
  const auto base = make_arrival_process(poisson_config(1.0), 1);
  const auto other_seed = make_arrival_process(poisson_config(1.0), 2);
  const auto other_salt = make_arrival_process(poisson_config(1.0, /*salt=*/5), 1);
  int seed_diffs = 0;
  int salt_diffs = 0;
  for (std::int64_t slot = 0; slot < 500; ++slot) {
    if (base->arrivals_at(slot) != other_seed->arrivals_at(slot)) ++seed_diffs;
    if (base->arrivals_at(slot) != other_salt->arrivals_at(slot)) ++salt_diffs;
  }
  EXPECT_GT(seed_diffs, 0);
  EXPECT_GT(salt_diffs, 0);
}

TEST(ArrivalProcess, TraceReplaysCountsAndGoesQuietBeyond) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kTrace;
  config.trace_counts = {2, 0, 1, 3};
  const auto process = make_arrival_process(config, 42);
  EXPECT_EQ(process->name(), "trace");
  EXPECT_EQ(process->arrivals_at(0), 2);
  EXPECT_EQ(process->arrivals_at(1), 0);
  EXPECT_EQ(process->arrivals_at(2), 1);
  EXPECT_EQ(process->arrivals_at(3), 3);
  EXPECT_EQ(process->arrivals_at(4), 0);
  EXPECT_EQ(process->arrivals_at(1000), 0);
}

TEST(ArrivalProcess, ValidateRejectsNonsense) {
  ArrivalConfig negative_rate = poisson_config(-0.1);
  EXPECT_THROW(validate(negative_rate), Error);

  ArrivalConfig negative_trace;
  negative_trace.kind = ArrivalKind::kTrace;
  negative_trace.trace_counts = {1, -1};
  EXPECT_THROW(validate(negative_trace), Error);

  EXPECT_NO_THROW(validate(ArrivalConfig{}));
  EXPECT_NO_THROW(validate(poisson_config(0.0)));
}

TEST(ArrivalProcess, ValidateRejectsNonFiniteRateByName) {
  // +inf passes a sign check and would throw only inside the sampler at the
  // first step; NaN must name the same error, not the sign check's.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::string error;
    try {
      validate(poisson_config(bad));
    } catch (const Error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("arrival rate must be finite"), std::string::npos)
        << "rate " << bad << ": got \"" << error << "\"";
  }
}

TEST(ArrivalProcess, FingerprintIsZeroOnlyWhenInactive) {
  EXPECT_EQ(arrival_fingerprint(ArrivalConfig{}), 0u);
  const std::uint64_t low = arrival_fingerprint(poisson_config(0.1));
  const std::uint64_t high = arrival_fingerprint(poisson_config(0.4));
  const std::uint64_t salted = arrival_fingerprint(poisson_config(0.1, 3));
  EXPECT_NE(low, 0u);
  EXPECT_NE(low, high);
  EXPECT_NE(low, salted);
  EXPECT_EQ(low, arrival_fingerprint(poisson_config(0.1)));
}

TEST(ArrivalProcess, InactiveConfigBuildsNoProcess) {
  EXPECT_EQ(make_arrival_process(ArrivalConfig{}, 42), nullptr);
}

TEST(ArrivalProcess, SessionContentIsPureInTheArrivalIndex) {
  ScenarioConfig cell = paper_scenario(4, 2026);
  cell.video_min_mb = 2.0;
  cell.video_max_mb = 4.0;

  // Drawing k = 7 cold must equal drawing it after a pass over 0..9 — the
  // purity that keeps admission-policy changes from shifting later sessions.
  const VideoSession cold = draw_session_content(cell, 0, 7);
  for (std::int64_t k = 0; k < 10; ++k) {
    (void)draw_session_content(cell, 0, k);
  }
  const VideoSession warm = draw_session_content(cell, 0, 7);
  EXPECT_EQ(cold.size_kb(), warm.size_kb());
  EXPECT_EQ(cold.bitrate_at_time(0.0), warm.bitrate_at_time(0.0));
}

TEST(ArrivalProcess, SessionContentStaysInsideTheConfiguredRanges) {
  ScenarioConfig cell = paper_scenario(4, 11);
  cell.video_min_mb = 2.0;
  cell.video_max_mb = 4.0;
  bool any_distinct = false;
  double first_size = -1.0;
  for (std::int64_t k = 0; k < 64; ++k) {
    const VideoSession session = draw_session_content(cell, 0, k);
    EXPECT_GE(session.size_kb(), 2000.0);
    EXPECT_LE(session.size_kb(), 4000.0);
    const double bitrate = session.bitrate_at_time(0.0);
    EXPECT_GE(bitrate, cell.bitrate_min_kbps);
    EXPECT_LE(bitrate, cell.bitrate_max_kbps);
    if (first_size < 0.0) {
      first_size = session.size_kb();
    } else if (session.size_kb() != first_size) {
      any_distinct = true;
    }
  }
  EXPECT_TRUE(any_distinct);
}

TEST(ArrivalProcess, PoissonSamplerHandlesEdgeIntensities) {
  Rng rng(1);
  EXPECT_EQ(poisson_sample(rng, 0.0), 0);
  // Large intensities go through the chunked path; the sample must stay close
  // to the mean (within 6 sigma, sigma = sqrt(lambda)).
  double sum = 0.0;
  for (int i = 0; i < 50; ++i) {
    const auto sample = poisson_sample(rng, 400.0);
    EXPECT_GT(sample, 280);
    EXPECT_LT(sample, 520);
    sum += as_double(sample);
  }
  EXPECT_NEAR(sum / 50.0, 400.0, 20.0);
}

}  // namespace
}  // namespace jstream
