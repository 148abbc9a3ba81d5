#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

std::unique_ptr<SignalModel> build_signal_model(const ScenarioConfig& config,
                                                std::size_t user, Rng& user_rng) {
  switch (config.signal_kind) {
    case SignalKind::kSine: {
      SineSignalParams params = config.signal;
      params.phase_radians = user_rng.uniform(0.0, 2.0 * std::numbers::pi);
      return std::make_unique<SineSignalModel>(params, user_rng.split(0x5167));
    }
    case SignalKind::kGaussMarkov:
      return std::make_unique<GaussMarkovSignalModel>(config.gauss_markov,
                                                      user_rng.split(0x6d6b));
    case SignalKind::kTrace: {
      // Rotate the shared trace by a per-user offset so users decorrelate.
      const auto offset = checked_size(user_rng.uniform_int(
          0, checked_index(config.trace_dbm.size()) - 1));
      std::vector<double> rotated(config.trace_dbm.size());
      for (std::size_t i = 0; i < rotated.size(); ++i) {
        rotated[i] = config.trace_dbm[(i + offset) % config.trace_dbm.size()];
      }
      return std::make_unique<TraceSignalModel>(std::move(rotated));
    }
  }
  throw Error("unknown signal kind for user " + std::to_string(user));
}

std::shared_ptr<const BitrateProfile> build_bitrate_profile(
    const ScenarioConfig& config, Rng& user_rng) {
  if (!config.vbr) {
    return std::make_shared<ConstantBitrate>(
        user_rng.uniform(config.bitrate_min_kbps, config.bitrate_max_kbps));
  }
  RandomWalkBitrate::Params params;
  params.min_kbps = config.bitrate_min_kbps;
  params.max_kbps = config.bitrate_max_kbps;
  params.step_kbps = config.vbr_step_kbps;
  params.hold_slots = config.vbr_hold_slots;
  return std::make_shared<RandomWalkBitrate>(params, user_rng.split(0x7662),
                                             config.max_slots);
}

}  // namespace

ScenarioConfig paper_scenario(std::size_t users, std::uint64_t seed) {
  ScenarioConfig config;
  config.users = users;
  config.seed = seed;
  return config;
}

ScenarioConfig paper_scenario_with_data_amount(std::size_t users, double avg_data_mb,
                                               std::uint64_t seed) {
  require(avg_data_mb > 100.0, "average data amount must exceed 100 MB");
  ScenarioConfig config = paper_scenario(users, seed);
  config.video_min_mb = avg_data_mb - 100.0;
  config.video_max_mb = avg_data_mb + 100.0;
  return config;
}

void validate(const ScenarioConfig& config) {
  require(config.users > 0, "scenario needs at least one user");
  require(config.max_slots > 0, "scenario needs at least one slot");
  // Infinite values would pass the range checks below and then break deep in
  // the run (an int64 cast of inf, a session that never ends). backhaul_kbps
  // stays exempt: +inf is the gateway's own "unlimited".
  require(std::isfinite(config.slot.tau_s), "slot length must be finite");
  require(std::isfinite(config.slot.delta_kb), "frame size must be finite");
  require(std::isfinite(config.capacity_kbps), "capacity must be finite");
  require(std::isfinite(config.video_max_mb), "maximum video size must be finite");
  require(std::isfinite(config.bitrate_max_kbps), "maximum bitrate must be finite");
  require(config.slot.tau_s > 0.0, "slot length must be positive");
  require(config.slot.delta_kb > 0.0, "frame size must be positive");
  require(config.capacity_kbps > 0.0, "capacity must be positive");
  require(config.backhaul_kbps >= 0.0, "backhaul must be non-negative");
  require(config.video_min_mb > 0.0 && config.video_min_mb <= config.video_max_mb,
          "video size range is invalid");
  require(config.bitrate_min_kbps > 0.0 &&
              config.bitrate_min_kbps <= config.bitrate_max_kbps,
          "bitrate range is invalid");
  require(config.arrival_spread_slots >= 0, "arrival spread must be non-negative");
  require(config.arrival_spread_slots < config.max_slots,
          "arrival spread must fit inside the horizon");
  if (config.vbr) {
    require(config.vbr_hold_slots > 0, "VBR hold period must be positive");
    require(std::isfinite(config.vbr_step_kbps), "VBR step must be finite");
    require(config.vbr_step_kbps > 0.0, "VBR step must be positive");
  }
  if (config.signal_kind == SignalKind::kSine) validate(config.signal);
  if (config.signal_kind == SignalKind::kGaussMarkov) validate(config.gauss_markov);
  if (config.signal_kind == SignalKind::kTrace) {
    require(!config.trace_dbm.empty(), "trace signal kind needs a trace");
    require(std::ranges::all_of(config.trace_dbm,
                                [](double sample) { return std::isfinite(sample); }),
            "trace signal samples must be finite");
  }
  if (config.capacity_kind == CapacityKind::kSine) {
    require(config.capacity_wave_fraction >= 0.0 && config.capacity_wave_fraction < 1.0,
            "capacity wave fraction must be in [0,1)");
    require(config.capacity_wave_period > 0.0, "capacity wave period must be positive");
  }
  require(config.link.throughput != nullptr && config.link.power != nullptr,
          "link model must be complete");
  validate(config.radio);
  validate(config.faults);
  validate(config.forecast);
  if (config.faults.outage_rate_per_kslot > 0.0) {
    // The fault injector re-evaluates the Definition 3/4 fits at the fade
    // depth; both throw here if the depth falls outside their positive range
    // (the paper's Eq. 24 fit turns non-positive below roughly -115 dBm).
    (void)config.link.throughput->throughput_kbps(config.faults.outage_dbm);
    (void)config.link.power->energy_per_kb(config.faults.outage_dbm);
  }
}

std::vector<UserEndpoint> build_endpoints(const ScenarioConfig& config) {
  validate(config);
  // jstream-lint: allow(rng-discipline) -- THE scenario root stream: every
  // endpoint/fault/arrival stream in a run splits from this seed.
  const Rng scenario_rng(config.seed);
  std::vector<UserEndpoint> endpoints;
  endpoints.reserve(config.users);
  for (std::size_t i = 0; i < config.users; ++i) {
    Rng user_rng = scenario_rng.split(i);
    const double size_kb =
        mb_to_kb(user_rng.uniform(config.video_min_mb, config.video_max_mb));
    auto bitrate = build_bitrate_profile(config, user_rng);
    auto signal_model = build_signal_model(config, i, user_rng);
    const std::int64_t start_slot =
        config.arrival_spread_slots > 0
            ? user_rng.uniform_int(0, config.arrival_spread_slots)
            : 0;

    VideoSession session(size_kb, std::move(bitrate), config.slot.tau_s);
    endpoints.emplace_back(std::move(signal_model), std::move(session), config.radio,
                           config.slot.tau_s, start_slot);
  }
  return endpoints;
}

std::function<double(std::int64_t)> capacity_profile(const ScenarioConfig& config) {
  switch (config.capacity_kind) {
    case CapacityKind::kConstant: {
      const double capacity = config.capacity_kbps;
      return [capacity](std::int64_t) { return capacity; };
    }
    case CapacityKind::kSine: {
      const double base = config.capacity_kbps;
      const double amplitude = config.capacity_wave_fraction * base;
      const double period = config.capacity_wave_period;
      return [base, amplitude, period](std::int64_t slot) {
        return base + amplitude * std::sin(2.0 * std::numbers::pi *
                                           as_double(slot) / period);
      };
    }
  }
  throw Error("unknown capacity kind");
}

}  // namespace jstream
