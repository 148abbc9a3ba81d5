#include "sim/forecast.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"

namespace jstream {

namespace {

// Forecast RNG root: disjoint from the endpoint construction streams
// (Rng(config.seed).split(i) for user indices i) and from the fault root
// (kFaultRootStream = 0xfa17...), so tuning forecast noise perturbs nothing
// about the channel, the content, or the fault windows.
constexpr std::uint64_t kForecastRootStream = 0x4fca5700'00000000ULL;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& hash, double value) noexcept {
  fnv_mix(hash, std::bit_cast<std::uint64_t>(value));
}

}  // namespace

void validate(const ForecastErrorSpec& spec) {
  // Non-finite knobs fail here, by name: a NaN would turn every forecast
  // into NaN inside the predictive scheduler's costs, and an infinity would
  // pin every forecast to a signal clamp.
  require(std::isfinite(spec.sigma_dbm), "forecast noise sigma must be finite");
  require(spec.sigma_dbm >= 0.0, "forecast noise sigma must be non-negative");
  require(std::isfinite(spec.bias_dbm), "forecast bias must be finite");
  require(spec.staleness_slots >= 0, "forecast staleness must be non-negative");
}

std::uint64_t forecast_fingerprint(const ForecastErrorSpec& spec) noexcept {
  if (!spec.any_error()) return 0;
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, spec.sigma_dbm);
  fnv_mix(hash, spec.bias_dbm);
  fnv_mix(hash, static_cast<std::uint64_t>(spec.staleness_slots));
  fnv_mix(hash, static_cast<std::uint64_t>(spec.track_fault_staleness));
  fnv_mix(hash, spec.salt);
  return hash;
}

std::vector<std::vector<double>> make_signal_forecast(const ScenarioConfig& config,
                                                      std::int64_t slots) {
  require(slots > 0, "forecast needs at least one slot");
  std::vector<UserEndpoint> endpoints = build_endpoints(config);
  std::vector<std::vector<double>> forecast(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    forecast[i].reserve(checked_size(slots));
    for (std::int64_t slot = 0; slot < slots; ++slot) {
      forecast[i].push_back(endpoints[i].signal->signal_dbm(slot));
    }
  }
  return forecast;
}

std::vector<std::vector<double>> make_signal_forecast(const ScenarioConfig& config,
                                                      std::int64_t slots,
                                                      const ForecastErrorSpec& spec) {
  validate(spec);
  std::vector<std::vector<double>> forecast = make_signal_forecast(config, slots);
  if (!spec.any_error()) return forecast;

  // Predictor lag: shift each trajectory right by staleness_slots, holding
  // the first sample over the warm-up stretch.
  if (spec.staleness_slots > 0) {
    const std::int64_t lag = std::min(spec.staleness_slots, slots);
    for (std::vector<double>& trace : forecast) {
      std::copy_backward(trace.begin(), trace.end() - lag, trace.end());
      std::fill(trace.begin(), trace.begin() + lag, trace.front());
    }
  }

  // Fault coupling: inside a stale-feedback window the predictor's input feed
  // is frozen, so every in-window slot forecasts the last pre-window value
  // (post-lag). Scenarios without stale windows are untouched.
  if (spec.track_fault_staleness && config.faults.staleness_rate_per_kslot > 0.0) {
    const FaultSchedule schedule = make_fault_schedule(config);
    for (std::size_t user = 0; user < forecast.size(); ++user) {
      std::vector<double>& trace = forecast[user];
      for (const FaultInterval& window : schedule.stale_windows(user)) {
        const std::int64_t begin = std::clamp<std::int64_t>(window.begin, 0, slots);
        const std::int64_t end = std::clamp<std::int64_t>(window.end, 0, slots);
        if (begin >= end) continue;
        const double frozen = trace[checked_size(std::max<std::int64_t>(begin - 1, 0))];
        std::fill(trace.begin() + begin, trace.begin() + end, frozen);
      }
    }
  }

  // Observation noise + miscalibration, clamped to the legal signal range so
  // downstream link-model fits stay in their positive domain.
  if (spec.sigma_dbm > 0.0 || spec.bias_dbm != 0.0) {
    const Rng forecast_root = Rng(config.seed).split(kForecastRootStream + spec.salt);
    for (std::size_t user = 0; user < forecast.size(); ++user) {
      Rng user_rng = forecast_root.split(user);
      for (double& sample : forecast[user]) {
        const double noise =
            spec.sigma_dbm > 0.0 ? user_rng.gaussian(0.0, spec.sigma_dbm) : 0.0;
        sample = std::clamp(sample + spec.bias_dbm + noise, kMinSignalDbm,
                            kMaxSignalDbm);
      }
    }
  }
  return forecast;
}

}  // namespace jstream
