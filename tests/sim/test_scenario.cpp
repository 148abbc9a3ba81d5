#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

TEST(Scenario, PaperDefaultsMatchSectionVI) {
  const ScenarioConfig config = paper_scenario();
  EXPECT_EQ(config.users, 40u);
  EXPECT_EQ(config.max_slots, 10000);
  EXPECT_DOUBLE_EQ(config.slot.tau_s, 1.0);
  EXPECT_DOUBLE_EQ(config.capacity_kbps, 20000.0);
  EXPECT_DOUBLE_EQ(config.video_min_mb, 250.0);
  EXPECT_DOUBLE_EQ(config.video_max_mb, 500.0);
  EXPECT_DOUBLE_EQ(config.bitrate_min_kbps, 300.0);
  EXPECT_DOUBLE_EQ(config.bitrate_max_kbps, 600.0);
  EXPECT_DOUBLE_EQ(config.signal.min_dbm, -110.0);
  EXPECT_DOUBLE_EQ(config.signal.max_dbm, -50.0);
  EXPECT_EQ(config.radio.name, "3g");
  EXPECT_NO_THROW(validate(config));
}

TEST(Scenario, DataAmountVariantCentersTheRange) {
  const ScenarioConfig config = paper_scenario_with_data_amount(30, 350.0);
  EXPECT_DOUBLE_EQ(config.video_min_mb, 250.0);
  EXPECT_DOUBLE_EQ(config.video_max_mb, 450.0);
  EXPECT_THROW((void)paper_scenario_with_data_amount(30, 50.0), Error);
}

TEST(Scenario, BuildEndpointsHonorsRanges) {
  const ScenarioConfig config = paper_scenario(25, 9);
  const auto endpoints = build_endpoints(config);
  ASSERT_EQ(endpoints.size(), 25u);
  for (const auto& endpoint : endpoints) {
    EXPECT_GE(endpoint.session.size_kb(), mb_to_kb(250.0));
    EXPECT_LE(endpoint.session.size_kb(), mb_to_kb(500.0));
    EXPECT_GE(endpoint.session.bitrate_kbps(0), 300.0);
    EXPECT_LE(endpoint.session.bitrate_kbps(0), 600.0);
    EXPECT_DOUBLE_EQ(endpoint.delivered_kb, 0.0);
    EXPECT_TRUE(endpoint.active());
  }
}

TEST(Scenario, EndpointsAreDeterministicPerSeed) {
  const ScenarioConfig config = paper_scenario(10, 77);
  auto a = build_endpoints(config);
  auto b = build_endpoints(config);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].session.size_kb(), b[i].session.size_kb());
    EXPECT_DOUBLE_EQ(a[i].session.bitrate_kbps(0), b[i].session.bitrate_kbps(0));
    EXPECT_DOUBLE_EQ(a[i].signal->signal_dbm(5), b[i].signal->signal_dbm(5));
  }
}

TEST(Scenario, DifferentSeedsGiveDifferentPopulations) {
  auto a = build_endpoints(paper_scenario(10, 1));
  auto b = build_endpoints(paper_scenario(10, 2));
  int identical = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].session.size_kb() == b[i].session.size_kb()) ++identical;
  }
  EXPECT_LT(identical, 3);
}

TEST(Scenario, UsersHaveDistinctSignalPhases) {
  auto endpoints = build_endpoints(paper_scenario(10, 5));
  // With per-user random phases, signals at the same slot should differ.
  int distinct = 0;
  const double first = endpoints[0].signal->signal_dbm(0);
  for (std::size_t i = 1; i < endpoints.size(); ++i) {
    if (std::abs(endpoints[i].signal->signal_dbm(0) - first) > 0.5) ++distinct;
  }
  EXPECT_GT(distinct, 5);
}

TEST(Scenario, ValidateCatchesBrokenConfigs) {
  ScenarioConfig config = paper_scenario();
  config.users = 0;
  EXPECT_THROW(validate(config), Error);
  config = paper_scenario();
  config.video_min_mb = 600.0;  // min > max
  EXPECT_THROW(validate(config), Error);
  config = paper_scenario();
  config.capacity_kbps = 0.0;
  EXPECT_THROW(validate(config), Error);
  config = paper_scenario();
  config.link.power = nullptr;
  EXPECT_THROW(validate(config), Error);
}

/// The message validate() rejects `config` with ("" when it accepts it).
std::string validate_error(const ScenarioConfig& config) {
  try {
    validate(config);
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

/// Sets one field to +inf and then NaN; both must fail with that field's
/// named error, not a later range check or a failure deep in the run.
void expect_non_finite_rejected(void (*set_field)(ScenarioConfig&, double),
                                const std::string& message) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ScenarioConfig config = paper_scenario(5);
    set_field(config, bad);
    const std::string error = validate_error(config);
    EXPECT_NE(error.find(message), std::string::npos)
        << "value " << bad << ": got \"" << error << "\"";
  }
}

TEST(Scenario, NonFiniteSlotLengthIsRejected) {
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.slot.tau_s = v; },
                             "slot length must be finite");
}

TEST(Scenario, NonFiniteFrameSizeIsRejected) {
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.slot.delta_kb = v; },
                             "frame size must be finite");
}

// +inf noise passes the range checks and pins every channel to a range end.
TEST(Scenario, NonFiniteSignalParamsAreRejected) {
  expect_non_finite_rejected(
      [](ScenarioConfig& c, double v) { c.signal.noise_stddev_db = v; },
      "sine noise stddev must be finite");
  expect_non_finite_rejected(
      [](ScenarioConfig& c, double v) {
        c.signal_kind = SignalKind::kGaussMarkov;
        c.gauss_markov.noise_stddev_db = v;
      },
      "Gauss-Markov noise stddev must be finite");
  expect_non_finite_rejected(
      [](ScenarioConfig& c, double v) {
        c.signal_kind = SignalKind::kGaussMarkov;
        c.gauss_markov.mean_dbm = v;
      },
      "Gauss-Markov mean must be finite");
}

// +inf flattened the sine to its midpoint and ran to completion.
TEST(Scenario, NonFiniteSinePeriodIsRejected) {
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.signal.period_slots = v; },
                             "sine period must be finite");
}

// +inf held a kSine capacity constant and ran to completion.
TEST(Scenario, NonFiniteCapacityWavePeriodIsRejected) {
  expect_non_finite_rejected(
      [](ScenarioConfig& c, double v) {
        c.capacity_kind = CapacityKind::kSine;
        c.capacity_wave_fraction = 0.3;
        c.capacity_wave_period = v;
      },
      "capacity wave period must be finite");
}

TEST(Scenario, NonFiniteCapacityIsRejected) {
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.capacity_kbps = v; },
                             "capacity must be finite");
}

TEST(Scenario, NonFiniteVideoSizeIsRejected) {
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.video_max_mb = v; },
                             "maximum video size must be finite");
}

TEST(Scenario, NonFiniteBitrateIsRejected) {
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.bitrate_max_kbps = v; },
                             "maximum bitrate must be finite");
}

TEST(Scenario, NonFiniteVbrStepIsRejected) {
  expect_non_finite_rejected(
      [](ScenarioConfig& c, double v) {
        c.vbr = true;
        c.vbr_step_kbps = v;
      },
      "VBR step must be finite");
}

TEST(Scenario, NonFiniteRadioProfileIsRejected) {
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.radio.p_dch_mw = v; },
                             "P_DCH must be finite");
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.radio.p_fach_mw = v; },
                             "P_FACH must be finite");
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.radio.t1_s = v; },
                             "T1 must be finite");
  expect_non_finite_rejected([](ScenarioConfig& c, double v) { c.radio.t2_s = v; },
                             "T2 must be finite");
}

// Non-empty is not enough: a non-finite sample would reach the Eq. 24 fit of
// the slot that replays it and fail there, naming no field.
TEST(Scenario, NonFiniteTraceSamplesAreRejected) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ScenarioConfig config = paper_scenario(5);
    config.signal_kind = SignalKind::kTrace;
    config.trace_dbm = {-80.0, bad, -90.0};
    const std::string error = validate_error(config);
    EXPECT_NE(error.find("trace signal samples must be finite"), std::string::npos)
        << "value " << bad << ": got \"" << error << "\"";
  }
}

TEST(Scenario, InfiniteBackhaulStaysUnlimited) {
  ScenarioConfig config = paper_scenario(5);
  config.backhaul_kbps = std::numeric_limits<double>::infinity();
  EXPECT_EQ(validate_error(config), "");
}

}  // namespace
}  // namespace jstream
