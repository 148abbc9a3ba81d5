#include "gateway/info_collector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

InfoCollector::InfoCollector(SlotParams params, LinkModel link, RadioProfile radio)
    : params_(params), link_(std::move(link)), radio_(radio) {
  require(params_.tau_s > 0.0, "slot length must be positive");
  require(params_.delta_kb > 0.0, "frame size must be positive");
  require(link_.throughput != nullptr && link_.power != nullptr,
          "link model must be complete");
  validate(radio_);
}

SlotContext InfoCollector::collect(std::int64_t slot, std::span<UserEndpoint> endpoints,
                                   const BaseStation& bs) const {
  SlotContext ctx;
  collect_into(slot, endpoints, bs, ctx);
  return ctx;
}

// jstream: hot-path — per-slot snapshot build; reuses ctx storage.
void InfoCollector::collect_into(std::int64_t slot, std::span<UserEndpoint> endpoints,
                                 const BaseStation& bs, SlotContext& ctx) const {
  require(slot >= 0, "slot must be non-negative");
  ctx.slot = slot;
  ctx.params = params_;
  ctx.capacity_units = bs.capacity_units(slot, params_);
  ctx.throughput = link_.throughput.get();
  ctx.power = link_.power.get();
  ctx.radio = &radio_;
  const std::size_t n = endpoints.size();
  ctx.users.resize(n);
  // One signal lane per slot, staged in the SoA mirror's link lanes: each
  // endpoint's sig_i(n) comes from its trace row or its live SignalModel,
  // then both Definition 3/4 fits run once over the whole lane, so
  // trace-backed and live endpoints share one path. finalize() below
  // republishes the same values with the rest of the mirror.
  SlotSoa& lanes = ctx.soa;
  lanes.signal_dbm.resize(n);
  lanes.throughput_kbps.resize(n);
  lanes.energy_per_kb.resize(n);
  double* signal = lanes.signal_dbm.data();
  for (std::size_t i = 0; i < n; ++i) {
    const UserEndpoint& endpoint = endpoints[i];
    if (endpoint.trace != nullptr) {
      require(slot < endpoint.trace->slots(), "slot beyond precomputed trace");
      signal[i] = endpoint.trace->row(slot)[endpoint.trace_user];
    } else {
      signal[i] = endpoint.signal->signal_dbm(slot);
    }
  }
  link_.throughput->throughput_kbps_batch(lanes.signal_dbm, lanes.throughput_kbps);
  link_.power->energy_per_kb_batch(lanes.signal_dbm, lanes.energy_per_kb);

  for (std::size_t i = 0; i < n; ++i) {
    UserEndpoint& endpoint = endpoints[i];
    UserSlotInfo& info = ctx.users[i];
    info.arrived = endpoint.arrived(slot);
    info.departed = endpoint.departed(slot);
    info.session_epoch = endpoint.session_epoch;
    info.signal_dbm = signal[i];
    info.throughput_kbps = lanes.throughput_kbps[i];
    info.energy_per_kb = lanes.energy_per_kb[i];
    // The rate the scheduler must sustain is that of the content at the
    // delivery frontier (identical to the wall-clock rate for CBR sessions).
    info.bitrate_kbps = endpoint.session.bitrate_at_time(endpoint.content_time_s);
    info.remaining_kb = endpoint.remaining_kb();
    info.needs_data = info.arrived && !info.departed && info.remaining_kb > 0.0;
    info.link_units = params_.link_units(info.throughput_kbps);
    const std::int64_t remaining_units =
        ceil_to_count(info.remaining_kb / params_.delta_kb);
    info.alloc_cap_units =
        (info.arrived && !info.departed)
            ? std::max<std::int64_t>(0, std::min(info.link_units, remaining_units))
            : 0;
    info.buffer_s = endpoint.buffer.occupancy_s();
    info.elapsed_play_s = endpoint.buffer.elapsed_s();
    info.total_play_s = endpoint.buffer.total_s();
    info.rrc_idle_s = endpoint.rrc.idle_time_s();
    info.rrc_promoted = !endpoint.rrc.never_transmitted();
    info.playback_done = endpoint.buffer.playback_finished();
  }
  // Publish the SoA mirror the scheduler hot loops stream over.
  ctx.finalize();
}

}  // namespace jstream
