#include "radio/signal_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

TEST(ConstantSignalModel, AlwaysSameValue) {
  ConstantSignalModel model(-75.0);
  EXPECT_DOUBLE_EQ(model.signal_dbm(0), -75.0);
  EXPECT_DOUBLE_EQ(model.signal_dbm(9999), -75.0);
}

TEST(ConstantSignalModel, RejectsPositiveDbm) {
  EXPECT_THROW(ConstantSignalModel(5.0), Error);
}

TEST(SineSignalModel, StaysWithinClampRange) {
  SineSignalParams params;
  params.noise_stddev_db = 8.0;
  SineSignalModel model(params, Rng(3));
  for (std::int64_t slot = 0; slot < 5000; ++slot) {
    const double sig = model.signal_dbm(slot);
    EXPECT_GE(sig, params.min_dbm);
    EXPECT_LE(sig, params.max_dbm);
  }
}

TEST(SineSignalModel, NoiselessFollowsSine) {
  SineSignalParams params;
  params.noise_stddev_db = 0.0;
  params.period_slots = 100.0;
  SineSignalModel model(params, Rng(1));
  const double mid = 0.5 * (params.min_dbm + params.max_dbm);
  const double amp = 0.5 * (params.max_dbm - params.min_dbm);
  for (std::int64_t slot : {0, 25, 50, 75}) {
    const double expected =
        mid + amp * std::sin(2.0 * std::numbers::pi * as_double(slot) / 100.0);
    EXPECT_NEAR(model.signal_dbm(slot), expected, 1e-9);
  }
}

TEST(SineSignalModel, PhaseShiftMovesTheWave) {
  SineSignalParams a;
  a.noise_stddev_db = 0.0;
  SineSignalParams b = a;
  b.phase_radians = std::numbers::pi;
  SineSignalModel model_a(a, Rng(1));
  SineSignalModel model_b(b, Rng(1));
  // Opposite phases mirror around the midpoint.
  const double mid = 0.5 * (a.min_dbm + a.max_dbm);
  const double va = model_a.signal_dbm(150);
  const double vb = model_b.signal_dbm(150);
  EXPECT_NEAR(va - mid, -(vb - mid), 1e-9);
}

TEST(SineSignalModel, RepeatedQueriesOfSameSlotMatch) {
  SineSignalParams params;
  SineSignalModel model(params, Rng(5));
  const double first = model.signal_dbm(10);
  EXPECT_DOUBLE_EQ(model.signal_dbm(10), first);
}

TEST(SineSignalModel, RejectsBackwardQueries) {
  SineSignalParams params;
  SineSignalModel model(params, Rng(5));
  (void)model.signal_dbm(10);
  EXPECT_THROW((void)model.signal_dbm(3), Error);
}

TEST(SineSignalModel, DeterministicForSameSeed) {
  SineSignalParams params;
  SineSignalModel a(params, Rng(77));
  SineSignalModel b(params, Rng(77));
  for (std::int64_t slot = 0; slot < 200; ++slot) {
    EXPECT_DOUBLE_EQ(a.signal_dbm(slot), b.signal_dbm(slot));
  }
}

TEST(SineSignalModel, RejectsInvalidParams) {
  SineSignalParams bad_range;
  bad_range.min_dbm = -50.0;
  bad_range.max_dbm = -110.0;
  EXPECT_THROW(SineSignalModel(bad_range, Rng(1)), Error);
  SineSignalParams bad_period;
  bad_period.period_slots = 0.0;
  EXPECT_THROW(SineSignalModel(bad_period, Rng(1)), Error);
}

/// Sets one range end of `params` to each non-finite value of either sign
/// and expects construction to fail with `message`.
template <typename Model, typename Params>
void expect_range_end_rejected(double Params::*end, const std::string& message) {
  for (const double bad : testing::kNonFinite) {
    for (const double value : {bad, -bad}) {
      Params params;
      params.*end = value;
      const std::string error =
          testing::error_message([&] { (void)Model(params, Rng(1)); });
      EXPECT_NE(error.find(message), std::string::npos)
          << message << ", value " << value << ": got \"" << error << "\"";
    }
  }
}

// A -inf minimum or +inf maximum passes the range check: the sine then fails
// at the Eq. 24 fit, naming no field. NaN fails it as an "empty" range.
TEST(SineSignalModel, RejectsNonFiniteRangeEndsByName) {
  expect_range_end_rejected<SineSignalModel>(&SineSignalParams::min_dbm,
                                              "sine signal minimum must be finite");
  expect_range_end_rejected<SineSignalModel>(&SineSignalParams::max_dbm,
                                              "sine signal maximum must be finite");
}

TEST(TraceSignalModel, WrapsAround) {
  TraceSignalModel model({-60.0, -70.0, -80.0});
  EXPECT_DOUBLE_EQ(model.signal_dbm(0), -60.0);
  EXPECT_DOUBLE_EQ(model.signal_dbm(4), -70.0);
  EXPECT_DOUBLE_EQ(model.signal_dbm(3000), -60.0);
}

TEST(TraceSignalModel, RejectsEmptyTrace) {
  EXPECT_THROW(TraceSignalModel({}), Error);
}

TEST(GaussMarkovSignalModel, StaysInRangeAndIsCorrelated) {
  GaussMarkovSignalModel::Params params;
  params.rho = 0.98;
  GaussMarkovSignalModel model(params, Rng(21));
  double prev = model.signal_dbm(0);
  double total_step = 0.0;
  for (std::int64_t slot = 1; slot < 2000; ++slot) {
    const double cur = model.signal_dbm(slot);
    EXPECT_GE(cur, params.min_dbm);
    EXPECT_LE(cur, params.max_dbm);
    total_step += std::abs(cur - prev);
    prev = cur;
  }
  // High correlation keeps average steps well below the noise-free swing.
  EXPECT_LT(total_step / 2000.0, 3.0 * params.noise_stddev_db);
}

// A -inf minimum runs with no floor on the clamp.
TEST(GaussMarkovSignalModel, RejectsNonFiniteRangeEndsByName) {
  using Params = GaussMarkovSignalModel::Params;
  expect_range_end_rejected<GaussMarkovSignalModel>(
      &Params::min_dbm, "Gauss-Markov signal minimum must be finite");
  expect_range_end_rejected<GaussMarkovSignalModel>(
      &Params::max_dbm, "Gauss-Markov signal maximum must be finite");
}

TEST(GaussMarkovSignalModel, RejectsInvalidRho) {
  GaussMarkovSignalModel::Params params;
  params.rho = 1.0;
  EXPECT_THROW(GaussMarkovSignalModel(params, Rng(1)), Error);
}

}  // namespace
}  // namespace jstream
