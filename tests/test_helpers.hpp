// Shared fixtures for gateway/core/baseline tests: small deterministic user
// populations with constant channels so expected values can be computed by
// hand.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gateway/info_collector.hpp"
#include "gateway/scheduler.hpp"
#include "gateway/user_endpoint.hpp"
#include "net/base_station.hpp"
#include "radio/link_model.hpp"
#include "radio/radio_profile.hpp"
#include "common/units.hpp"

namespace jstream::testing {

/// One user with a constant signal and constant-bitrate session.
inline UserEndpoint make_endpoint(double signal_dbm, double bitrate_kbps,
                                  double size_kb, double tau_s = 1.0,
                                  RadioProfile radio = paper_3g_profile()) {
  return UserEndpoint(std::make_unique<ConstantSignalModel>(signal_dbm),
                      VideoSession(size_kb, std::make_shared<ConstantBitrate>(bitrate_kbps),
                                   tau_s),
                      radio, tau_s);
}

/// A population of identical users at distinct signal levels.
inline std::vector<UserEndpoint> make_endpoints(
    const std::vector<double>& signals_dbm, double bitrate_kbps = 400.0,
    double size_kb = 50000.0, RadioProfile radio = paper_3g_profile()) {
  std::vector<UserEndpoint> endpoints;
  endpoints.reserve(signals_dbm.size());
  for (double sig : signals_dbm) {
    endpoints.push_back(make_endpoint(sig, bitrate_kbps, size_kb, 1.0, radio));
  }
  return endpoints;
}

/// Collector with the paper link model and 3G profile.
inline InfoCollector make_collector(SlotParams params = SlotParams{},
                                    RadioProfile radio = paper_3g_profile()) {
  return InfoCollector(params, make_paper_link_model(), radio);
}

/// Lightweight per-user description for building synthetic SlotContexts.
struct TestUser {
  double signal_dbm = -80.0;
  double bitrate_kbps = 400.0;
  double remaining_kb = 1e6;
  double buffer_s = 0.0;
  double rrc_idle_s = 0.0;
  bool rrc_promoted = false;
  double elapsed_play_s = 0.0;
  double total_play_s = 1000.0;
};

/// Builds a scheduler-ready snapshot without running a simulation. The link
/// model and radio profile are process-lifetime statics (SlotContext holds
/// raw pointers).
inline SlotContext make_context(const std::vector<TestUser>& users,
                                double capacity_kbps = 20000.0,
                                SlotParams params = SlotParams{},
                                std::int64_t slot = 0) {
  static const LinkModel link = make_paper_link_model();
  static const RadioProfile radio = paper_3g_profile();
  SlotContext ctx;
  ctx.slot = slot;
  ctx.params = params;
  ctx.capacity_units = params.capacity_units(capacity_kbps);
  ctx.throughput = link.throughput.get();
  ctx.power = link.power.get();
  ctx.radio = &radio;
  for (const TestUser& user : users) {
    UserSlotInfo info;
    info.signal_dbm = user.signal_dbm;
    info.bitrate_kbps = user.bitrate_kbps;
    info.throughput_kbps = link.throughput->throughput_kbps(user.signal_dbm);
    info.energy_per_kb = link.power->energy_per_kb(user.signal_dbm);
    info.remaining_kb = user.remaining_kb;
    info.needs_data = user.remaining_kb > 0.0;
    info.link_units = params.link_units(info.throughput_kbps);
    const auto remaining_units =
        ceil_to_count(user.remaining_kb / params.delta_kb);
    info.alloc_cap_units =
        std::max<std::int64_t>(0, std::min(info.link_units, remaining_units));
    info.buffer_s = user.buffer_s;
    info.elapsed_play_s = user.elapsed_play_s;
    info.total_play_s = user.total_play_s;
    info.rrc_idle_s = user.rrc_idle_s;
    info.rrc_promoted = user.rrc_promoted;
    ctx.users.push_back(info);
  }
  ctx.finalize();
  return ctx;
}

/// One decision through Scheduler::allocate_into, into a fresh Allocation.
inline Allocation decide(Scheduler& scheduler, const SlotContext& ctx) {
  Allocation out;
  scheduler.allocate_into(ctx, out);
  return out;
}

/// The message of the jstream::Error that `fn` throws, or "" when it returns.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

/// A stepwise MCS-style throughput fit that overrides only the per-value
/// form, so callers reach it through ThroughputModel's default batch loop.
class StepThroughputModel final : public ThroughputModel {
 public:
  [[nodiscard]] double throughput_kbps(double signal_dbm) const override {
    require(signal_dbm > -120.0, "step fit has no rate below -120 dBm");
    if (signal_dbm < -95.0) return 300.0;
    return signal_dbm < -80.0 ? 1200.0 : 3000.0;
  }
};

/// The two non-finite values a range check alone misses or misnames: +inf
/// passes a lower bound, and NaN fails it under the range check's message.
inline constexpr double kNonFinite[] = {std::numeric_limits<double>::infinity(),
                                        std::numeric_limits<double>::quiet_NaN()};

}  // namespace jstream::testing
