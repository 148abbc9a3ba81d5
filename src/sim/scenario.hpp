// Scenario construction: turns the paper's Section VI parameters (or any
// variation of them) into a population of user endpoints plus the shared
// radio/link configuration. Beyond the paper's static setting, scenarios can
// stagger session arrivals (dynamic user traffic), switch the RSSI process,
// use VBR bitrates, and vary the base-station capacity over time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "gateway/user_endpoint.hpp"
#include "media/bitrate_profile.hpp"
#include "net/transmission.hpp"
#include "radio/link_model.hpp"
#include "radio/radio_profile.hpp"
#include "radio/signal_model.hpp"
#include "radio/signal_trace.hpp"
#include "sim/fault.hpp"
#include "sim/forecast.hpp"

namespace jstream {

/// Which RSSI process drives each user.
enum class SignalKind {
  kSine,         ///< the paper's sine + AWGN with per-user phase (default)
  kGaussMarkov,  ///< AR(1) channel with per-user stream
  kTrace,        ///< shared recorded trace with per-user offset
};

/// How the base-station capacity evolves over time.
enum class CapacityKind {
  kConstant,  ///< S(n) = capacity_kbps (the paper's setting)
  kSine,      ///< diurnal-style load wave around capacity_kbps
};

/// Full description of one simulation configuration.
struct ScenarioConfig {
  std::size_t users = 40;
  std::int64_t max_slots = 10000;  ///< Gamma; runs may stop early (see below)
  std::uint64_t seed = 42;

  SlotParams slot;                    ///< tau = 1 s, delta = 100 KB by default
  double capacity_kbps = 20000.0;     ///< S: 20 MB/s at the base station
  double backhaul_kbps = 0.0;         ///< gateway-to-origin rate; 0 = unlimited

  double video_min_mb = 250.0;        ///< content size range (uniform)
  double video_max_mb = 500.0;
  double bitrate_min_kbps = 300.0;    ///< required data rate range (uniform)
  double bitrate_max_kbps = 600.0;

  /// Variable-bitrate content: when true, each session's required rate walks
  /// within [bitrate_min, bitrate_max] (RandomWalkBitrate) instead of staying
  /// constant.
  bool vbr = false;
  std::int64_t vbr_hold_slots = 30;   ///< walk re-sampling period
  double vbr_step_kbps = 50.0;        ///< max change per period

  /// Dynamic user traffic: session i starts at a uniform slot in
  /// [0, arrival_spread_slots]. 0 = everyone starts at slot 0 (paper setting).
  std::int64_t arrival_spread_slots = 0;

  /// RSSI process selection plus per-kind parameters.
  SignalKind signal_kind = SignalKind::kSine;
  SineSignalParams signal;                       ///< kSine (phase randomized)
  GaussMarkovSignalModel::Params gauss_markov;   ///< kGaussMarkov
  std::vector<double> trace_dbm;                 ///< kTrace (shared, offset per user)

  /// Base-station capacity dynamics.
  CapacityKind capacity_kind = CapacityKind::kConstant;
  double capacity_wave_fraction = 0.3;   ///< kSine amplitude as a fraction of S
  double capacity_wave_period = 900.0;   ///< kSine period in slots

  RadioProfile radio = paper_3g_profile();
  LinkModel link = make_paper_link_model();

  /// Degraded-cell fault intensities (outages, capacity dips, departures,
  /// stale feedback — see sim/fault.hpp). Default: all off, the paper's
  /// benign cell; with every intensity at zero the run is bit-identical to a
  /// config without faults. The schedule is derived from this plus `seed` on
  /// RNG streams independent of the endpoint streams, so enabling faults
  /// changes nothing about the channel or the content.
  FaultConfig faults;

  /// Forecast error model for prediction-assisted schedulers (see
  /// sim/forecast.hpp). Default: perfect forecasts. Like faults, the noise is
  /// drawn on RNG streams independent of the endpoint streams, and an
  /// inactive spec is the identity — it never alters the channel substrate,
  /// only what a predictive scheduler believes about it.
  ForecastErrorSpec forecast;

  /// Stop once every session has finished (plus a tail-flush margin) instead
  /// of idling to max_slots. Keeps metrics focused on session activity.
  bool early_stop = true;
};

/// The paper's evaluation scenario for `users` users.
[[nodiscard]] ScenarioConfig paper_scenario(std::size_t users = 40,
                                            std::uint64_t seed = 42);

/// Variant for the Fig. 4b / 8b sweeps: video sizes drawn from
/// U[avg - 100 MB, avg + 100 MB] around the requested average data amount.
[[nodiscard]] ScenarioConfig paper_scenario_with_data_amount(std::size_t users,
                                                             double avg_data_mb,
                                                             std::uint64_t seed = 42);

/// Materializes the per-user endpoints (signal stream, session, buffer, RRC,
/// arrival slot) deterministically from config.seed.
[[nodiscard]] std::vector<UserEndpoint> build_endpoints(const ScenarioConfig& config);

/// Gives a run's endpoints their channel: attaches endpoint i to row i of
/// `trace` when one is given (the caller has checked that it covers the
/// run), and otherwise of a SignalTraceSet::stream over `slots` slots that
/// takes the endpoints' own SignalModels by move. Returns the set, which the
/// caller keeps alive while it runs slots over the endpoints.
[[nodiscard]] std::shared_ptr<const SignalTraceSet> attach_channels(
    std::span<UserEndpoint> endpoints, std::shared_ptr<const SignalTraceSet> trace,
    std::int64_t slots);

/// Capacity profile S(n) in KB/s implied by the configuration.
[[nodiscard]] std::function<double(std::int64_t)> capacity_profile(
    const ScenarioConfig& config);

/// Validates a configuration; throws jstream::Error with a description.
void validate(const ScenarioConfig& config);

}  // namespace jstream
