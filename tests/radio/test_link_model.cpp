#include "radio/link_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

using testing::StepThroughputModel;
using testing::error_message;

/// Signals over the paper's RSSI band plus off-grid draws, `n` of them.
std::vector<double> band_signals(std::size_t n) {
  Rng rng(0x5eed);
  std::vector<double> signals(n);
  for (std::size_t i = 0; i < n; ++i) {
    signals[i] = i % 3 == 0 ? -110.0 + 61.0 * as_double(i) / as_double(n)
                            : rng.uniform(-110.0, -49.0);
  }
  return signals;
}

/// Batch forms of `link` against its per-value forms over `signals`: equal
/// bits on success, the same error text on failure.
void expect_batch_matches_per_value(const LinkModel& link, const std::vector<double>& signals) {
  std::vector<double> throughput(signals.size());
  std::vector<double> energy(signals.size());
  const std::string batch_v =
      error_message([&] { link.throughput->throughput_kbps_batch(signals, throughput); });
  const std::string batch_p =
      error_message([&] { link.power->energy_per_kb_batch(signals, energy); });
  const std::string per_value_v = error_message([&] {
    for (const double s : signals) (void)link.throughput->throughput_kbps(s);
  });
  const std::string per_value_p = error_message([&] {
    for (const double s : signals) (void)link.power->energy_per_kb(s);
  });
  EXPECT_EQ(batch_v, per_value_v);
  EXPECT_EQ(batch_p, per_value_p);
  if (per_value_v.empty()) {
    for (std::size_t i = 0; i < signals.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(throughput[i]),
                std::bit_cast<std::uint64_t>(link.throughput->throughput_kbps(signals[i])))
          << "signal " << signals[i];
    }
  }
  if (per_value_p.empty()) {
    for (std::size_t i = 0; i < signals.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(energy[i]),
                std::bit_cast<std::uint64_t>(link.power->energy_per_kb(signals[i])))
          << "signal " << signals[i];
    }
  }
}

LinkModel step_link_model() {
  auto throughput = std::make_shared<const StepThroughputModel>();
  return LinkModel{throughput, std::make_shared<const FittedPowerModel>(throughput)};
}

TEST(LinkModelBatch, EqualsPerValueFitsBitForBit) {
  // Sizes around every vector width and tail the batch loops can take.
  for (const std::size_t n : {0U, 1U, 2U, 3U, 4U, 5U, 7U, 8U, 40U, 97U, 1000U}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_batch_matches_per_value(make_paper_link_model(), band_signals(n));
    expect_batch_matches_per_value(step_link_model(), band_signals(n));
  }
}

TEST(LinkModelBatch, ThrowsThePerValueFormsNamedErrors) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // -200 dBm drives the linear fit non-positive; +40 dBm keeps it positive
  // but drives P(sig) non-positive. Whichever comes first must win, as it
  // does in the per-value loop.
  for (const std::vector<double>& bad :
       {std::vector<double>{-80.0, -200.0, -60.0}, std::vector<double>{-80.0, 40.0, -60.0},
        std::vector<double>{-90.0, 40.0, -200.0}, std::vector<double>{-90.0, -200.0, 40.0},
        std::vector<double>{-70.0, kNaN}, std::vector<double>{-130.0, -70.0}}) {
    expect_batch_matches_per_value(make_paper_link_model(), bad);
    expect_batch_matches_per_value(step_link_model(), bad);
  }
  // The paper fits name their errors.
  const LinkModel link = make_paper_link_model();
  std::vector<double> out(3);
  EXPECT_NE(error_message([&] {
              link.throughput->throughput_kbps_batch(std::vector<double>{-70.0, -200.0, -60.0},
                                                     out);
            }).find("throughput fit is non-positive"),
            std::string::npos);
  EXPECT_NE(error_message([&] {
              link.power->energy_per_kb_batch(std::vector<double>{-70.0, 40.0, -60.0}, out);
            }).find("power fit is non-positive"),
            std::string::npos);
}

TEST(LinkModelBatch, RejectsMismatchedOrOverlappingSpans) {
  const LinkModel link = make_paper_link_model();
  std::vector<double> lane{-80.0, -70.0, -60.0, -50.0};
  std::vector<double> short_out(3);
  EXPECT_THROW(link.throughput->throughput_kbps_batch(lane, short_out), Error);
  EXPECT_THROW(link.power->energy_per_kb_batch(lane, short_out), Error);
  const std::span<double> all(lane);
  EXPECT_THROW(link.throughput->throughput_kbps_batch(all.first(3), all.last(3)), Error);
  EXPECT_THROW(link.power->energy_per_kb_batch(all, all), Error);
  EXPECT_THROW(step_link_model().throughput->throughput_kbps_batch(all, all), Error);
  // Adjacent but disjoint halves are fine.
  EXPECT_NO_THROW(link.throughput->throughput_kbps_batch(all.first(2), all.last(2)));
}

TEST(LinearThroughputModel, MatchesPaperFitEq24) {
  const LinearThroughputModel model;
  // v(sig) = 65.8 * sig + 7567 KB/s at the sweep endpoints.
  EXPECT_NEAR(model.throughput_kbps(-110.0), 329.0, 1e-9);
  EXPECT_NEAR(model.throughput_kbps(-50.0), 4277.0, 1e-9);
  EXPECT_NEAR(model.throughput_kbps(-80.0), 2303.0, 1e-9);
}

TEST(LinearThroughputModel, InverseRoundTrips) {
  const LinearThroughputModel model;
  for (double sig : {-110.0, -93.5, -72.0, -50.0}) {
    EXPECT_NEAR(model.signal_for_throughput(model.throughput_kbps(sig)), sig, 1e-9);
  }
}

TEST(LinearThroughputModel, RejectsNonPositiveSlopeOrThroughput) {
  EXPECT_THROW(LinearThroughputModel(-1.0, 100.0), Error);
  const LinearThroughputModel model;
  EXPECT_THROW((void)model.throughput_kbps(-200.0), Error);  // fit goes negative
}

TEST(FittedPowerModel, MatchesPaperFitEq24) {
  const LinkModel link = make_paper_link_model();
  // P(sig) = -0.167 + 1560 / v(sig) mJ/KB.
  EXPECT_NEAR(link.power->energy_per_kb(-110.0), -0.167 + 1560.0 / 329.0, 1e-9);
  EXPECT_NEAR(link.power->energy_per_kb(-50.0), -0.167 + 1560.0 / 4277.0, 1e-9);
}

TEST(FittedPowerModel, PerByteCostDecreasesWithSignal) {
  const LinkModel link = make_paper_link_model();
  double prev = link.power->energy_per_kb(-110.0);
  for (double sig = -105.0; sig <= -50.0; sig += 5.0) {
    const double cur = link.power->energy_per_kb(sig);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(FittedPowerModel, FullRatePowerDecreasesWithSignal) {
  // P(sig)*v(sig) = -0.167*v + 1560 mW: a weak-signal slot at full rate burns
  // MORE instantaneous power than a strong-signal one (Eq. 12's premise).
  auto throughput = std::make_shared<const LinearThroughputModel>();
  const FittedPowerModel power(throughput);
  EXPECT_GT(power.full_rate_power_mw(-110.0), power.full_rate_power_mw(-50.0));
  EXPECT_NEAR(power.full_rate_power_mw(-110.0), -0.167 * 329.0 + 1560.0, 1e-9);
}

TEST(FittedPowerModel, RejectsNullAndBadScale) {
  auto throughput = std::make_shared<const LinearThroughputModel>();
  EXPECT_THROW(FittedPowerModel(nullptr), Error);
  EXPECT_THROW(FittedPowerModel(throughput, -0.167, -5.0), Error);
}

TEST(MakePaperLinkModel, IsComplete) {
  const LinkModel link = make_paper_link_model();
  ASSERT_NE(link.throughput, nullptr);
  ASSERT_NE(link.power, nullptr);
}

}  // namespace
}  // namespace jstream
