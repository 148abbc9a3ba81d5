// Forecast error model (sim/forecast.hpp):
//   * seed-pure: the same (scenario, spec) always produces the same noisy
//     forecast, and a zero-error spec is bit-identical to the exact overload;
//   * stream discipline: forecast noise draws from its own split Rng root, so
//     endpoints and the fault schedule replay identically whatever the spec,
//     and distinct salts / users get independent noise;
//   * transform semantics: staleness lags the forecast, bias shifts it
//     (clamped to the physical dBm range), track_fault_staleness freezes it
//     across stale-feedback windows;
//   * fingerprints: inactive specs fingerprint to 0 (perfect-forecast cache
//     entries alias prediction-free ones by design), active specs separate;
//   * oracle gap: on a single-crest trace scenario the predictive scheduler's
//     energy (hence its gap to the fixed oracle bound) is monotonically
//     non-improving as sigma grows — noise can only blur the crest.
#include "sim/forecast.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "radio/signal_model.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed = 42) {
  ScenarioConfig config = paper_scenario(4, seed);
  config.max_slots = 200;
  return config;
}

TEST(ForecastNoise, SameSeedSameForecast) {
  const ScenarioConfig config = small_scenario();
  ForecastErrorSpec spec;
  spec.sigma_dbm = 5.0;
  spec.staleness_slots = 3;
  const auto a = make_signal_forecast(config, 200, spec);
  const auto b = make_signal_forecast(config, 200, spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "user " << i;
}

TEST(ForecastNoise, ZeroErrorBitIdenticalToExact) {
  const ScenarioConfig config = small_scenario();
  const auto exact = make_signal_forecast(config, 200);
  const auto noisy = make_signal_forecast(config, 200, ForecastErrorSpec{});
  ASSERT_EQ(exact.size(), noisy.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i], noisy[i]) << "user " << i;
  }
}

TEST(ForecastNoise, NoiseDoesNotDisturbEndpointsOrFaultSchedule) {
  // The forecast draws from its own Rng root; building a noisy forecast must
  // leave the endpoint replay and the fault schedule bit-identical — the
  // scenario seed fans out by value, never through shared generator state.
  ScenarioConfig config = small_scenario();
  config.faults.staleness_rate_per_kslot = 40.0;
  config.faults.staleness_max_slots = 20;

  const auto endpoints_before = build_endpoints(config);
  const FaultSchedule faults_before = make_fault_schedule(config);
  ForecastErrorSpec spec;
  spec.sigma_dbm = 9.0;
  const auto noisy = make_signal_forecast(config, 200, spec);
  const auto endpoints_after = build_endpoints(config);
  const FaultSchedule faults_after = make_fault_schedule(config);

  ASSERT_EQ(endpoints_before.size(), endpoints_after.size());
  for (std::size_t i = 0; i < endpoints_before.size(); ++i) {
    for (std::int64_t slot = 0; slot < 200; ++slot) {
      ASSERT_DOUBLE_EQ(endpoints_before[i].signal->signal_dbm(slot),
                       endpoints_after[i].signal->signal_dbm(slot));
    }
    const auto before = faults_before.stale_windows(i);
    const auto after = faults_after.stale_windows(i);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t w = 0; w < before.size(); ++w) {
      EXPECT_EQ(before[w].begin, after[w].begin);
      EXPECT_EQ(before[w].end, after[w].end);
    }
  }
  // And the noise really fired (the disjointness claim is non-vacuous).
  const auto exact = make_signal_forecast(config, 200);
  EXPECT_NE(exact, noisy);
}

TEST(ForecastNoise, SaltsAndUsersGetIndependentStreams) {
  const ScenarioConfig config = small_scenario();
  ForecastErrorSpec spec;
  spec.sigma_dbm = 6.0;
  const auto base = make_signal_forecast(config, 200, spec);
  spec.salt = 1;
  const auto salted = make_signal_forecast(config, 200, spec);
  EXPECT_NE(base, salted);
  // Per-user noise differs even where the exact signals coincide: compare the
  // noise residuals of two users on a shared constant trace.
  ScenarioConfig flat = config;
  flat.signal_kind = SignalKind::kTrace;
  flat.trace_dbm.assign(8, -80.0);  // rotation-invariant: all users identical
  ForecastErrorSpec noisy;
  noisy.sigma_dbm = 6.0;
  const auto f = make_signal_forecast(flat, 64, noisy);
  EXPECT_NE(f[0], f[1]);
}

TEST(ForecastNoise, StalenessLagsAndBiasShifts) {
  const ScenarioConfig config = small_scenario();
  const auto exact = make_signal_forecast(config, 120);
  ForecastErrorSpec spec;
  spec.staleness_slots = 7;
  const auto stale = make_signal_forecast(config, 120, spec);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    for (std::size_t m = 0; m < 120; ++m) {
      const double want = m < 7 ? exact[i][0] : exact[i][m - 7];
      ASSERT_DOUBLE_EQ(stale[i][m], want) << "user " << i << " slot " << m;
    }
  }
  ForecastErrorSpec biased;
  biased.bias_dbm = 4.5;
  const auto shifted = make_signal_forecast(config, 120, biased);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    for (std::size_t m = 0; m < 120; ++m) {
      ASSERT_DOUBLE_EQ(shifted[i][m],
                       std::min(exact[i][m] + 4.5, kMaxSignalDbm));
    }
  }
}

TEST(ForecastNoise, TrackFaultStalenessFreezesStaleWindows) {
  ScenarioConfig config = small_scenario(7);
  config.faults.staleness_rate_per_kslot = 60.0;
  config.faults.staleness_min_slots = 5;
  config.faults.staleness_max_slots = 25;
  const auto exact = make_signal_forecast(config, 200);
  ForecastErrorSpec spec;
  spec.track_fault_staleness = true;
  const auto frozen = make_signal_forecast(config, 200, spec);
  const FaultSchedule schedule = make_fault_schedule(config);
  bool saw_window = false;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    for (const FaultInterval& window : schedule.stale_windows(i)) {
      const std::int64_t begin = std::max<std::int64_t>(window.begin, 0);
      const std::int64_t end = std::min<std::int64_t>(window.end, 200);
      if (begin >= end) continue;
      saw_window = true;
      const double held = exact[i][checked_size(std::max<std::int64_t>(begin - 1, 0))];
      for (std::int64_t m = begin; m < end; ++m) {
        ASSERT_DOUBLE_EQ(frozen[i][checked_size(m)], held)
            << "user " << i << " slot " << m;
      }
    }
  }
  EXPECT_TRUE(saw_window) << "fault rate too low to exercise the freeze";
}

TEST(ForecastNoise, FingerprintsSeparateActiveSpecs) {
  EXPECT_EQ(forecast_fingerprint(ForecastErrorSpec{}), 0u);
  ForecastErrorSpec a;
  a.sigma_dbm = 3.0;
  ForecastErrorSpec b = a;
  b.sigma_dbm = 4.0;
  ForecastErrorSpec c = a;
  c.salt = 9;
  EXPECT_NE(forecast_fingerprint(a), 0u);
  EXPECT_NE(forecast_fingerprint(a), forecast_fingerprint(b));
  EXPECT_NE(forecast_fingerprint(a), forecast_fingerprint(c));

  // Trace-cache keys: a perfect-forecast scenario shares its entry with the
  // prediction-free run; an active error spec gets its own.
  ScenarioConfig config = small_scenario();
  const TraceKey plain = make_trace_key(config);
  config.forecast = a;
  const TraceKey noisy = make_trace_key(config);
  EXPECT_FALSE(plain == noisy);
  EXPECT_NE(trace_key_fingerprint(plain), trace_key_fingerprint(noisy));
  config.forecast = ForecastErrorSpec{};
  EXPECT_TRUE(plain == make_trace_key(config));
}

TEST(ForecastNoise, RejectsInvalidSpecs) {
  ForecastErrorSpec bad;
  bad.sigma_dbm = -1.0;
  EXPECT_THROW(validate(bad), Error);
  ForecastErrorSpec stale;
  stale.staleness_slots = -2;
  EXPECT_THROW(validate(stale), Error);
}

/// The message validate() rejects `spec` with ("" when it accepts it).
std::string validate_error(const ForecastErrorSpec& spec) {
  try {
    validate(spec);
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(ForecastNoise, RejectsNonFiniteBiasAndSigmaByName) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {kInf, -kInf, kNan}) {
    ForecastErrorSpec spec;
    spec.bias_dbm = bad;
    EXPECT_NE(validate_error(spec).find("forecast bias must be finite"), std::string::npos)
        << "bias " << bad << ": got \"" << validate_error(spec) << "\"";
  }
  for (const double bad : {kInf, kNan}) {
    ForecastErrorSpec spec;
    spec.sigma_dbm = bad;
    EXPECT_NE(validate_error(spec).find("forecast noise sigma must be finite"),
              std::string::npos)
        << "sigma " << bad << ": got \"" << validate_error(spec) << "\"";
  }
}

TEST(ForecastNoise, OracleGapMonotoneNonImprovingInSigma) {
  // Single pronounced crest in an otherwise expensive channel: with a perfect
  // forecast the predictive EMA buys through the crest; noise blurs where the
  // crest is, so energy — and hence the gap to the fixed offline bound — can
  // only grow. Statistical but fully seeded: per-seed totals were strictly
  // monotone on all probed seeds; the assertion averages three seeds and
  // allows a 1% slack per step.
  const std::vector<double> sigmas = {0.0, 8.0, 30.0};
  std::vector<double> avg_total(sigmas.size(), 0.0);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ScenarioConfig scenario = paper_scenario(4, seed);
    scenario.signal_kind = SignalKind::kTrace;
    scenario.trace_dbm.assign(400, -102.0);
    for (int slot = 150; slot < 200; ++slot) scenario.trace_dbm[checked_size(slot)] = -62.0;
    scenario.max_slots = 400;
    SchedulerOptions options;
    options.ema_predictive.horizon_slots = 200;
    for (std::size_t at = 0; at < sigmas.size(); ++at) {
      ScenarioConfig noisy = scenario;
      noisy.forecast.sigma_dbm = sigmas[at];
      const RunMetrics m =
          run_experiment({"p", "ema-predictive", noisy, options}, false);
      avg_total[at] += m.total_energy_mj() / 3.0;
    }
  }
  for (std::size_t at = 0; at + 1 < sigmas.size(); ++at) {
    EXPECT_LE(avg_total[at], avg_total[at + 1] * 1.01)
        << "sigma " << sigmas[at] << " -> " << sigmas[at + 1];
  }
}

}  // namespace
}  // namespace jstream
