#include "gateway/data_transmitter.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"
#include "radio/rrc.hpp"
#include "telemetry/registry.hpp"

namespace jstream {

namespace {

// Resolved once; references stay valid for the process lifetime.
struct TransmitterTelemetry {
  telemetry::Counter& eq1_link_clips;
  telemetry::Counter& eq2_capacity_clips;
  telemetry::SlotTracer& tracer;

  static TransmitterTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static TransmitterTelemetry probes{registry.counter("constraint.eq1.link_cap_clips"),
                                       registry.counter("constraint.eq2.capacity_clips"),
                                       registry.tracer()};
    return probes;
  }
};

/// Constraint (1)/(2) validation against the snapshot's per-user caps.
/// Mirrors require_feasible but reads the caps straight from the context, so
/// the per-slot path needs no temporary caps vector; messages are built only
/// on the failure branch. Returns the slot's total grant.
std::int64_t require_feasible_ctx(const Allocation& allocation, const SlotContext& ctx) {
  require(allocation.units.size() == ctx.users.size(),
          "infeasible allocation: allocation size does not match user count");
  std::int64_t total = 0;
  for (std::size_t i = 0; i < allocation.units.size(); ++i) {
    const std::int64_t phi = allocation.units[i];
    if (phi < 0) {
      require(false, "infeasible allocation: negative allocation for user " +
                         std::to_string(i));
    }
    if (phi > ctx.users[i].alloc_cap_units) {
      require(false, "infeasible allocation: constraint (1) violated for user " +
                         std::to_string(i) + ": " + std::to_string(phi) + " > " +
                         std::to_string(ctx.users[i].alloc_cap_units));
    }
    total += phi;
  }
  if (total > ctx.capacity_units) {
    require(false, "infeasible allocation: constraint (2) violated: " +
                       std::to_string(total) + " > " +
                       std::to_string(ctx.capacity_units));
  }
  return total;
}

}  // namespace

SlotOutcome DataTransmitter::apply(const SlotContext& ctx, const Allocation& allocation,
                                   std::span<UserEndpoint> endpoints,
                                   DataReceiver& receiver) const {
  SlotOutcome outcome;
  apply_into(ctx, allocation, endpoints, receiver, outcome);
  return outcome;
}

// jstream: hot-path — per-slot transmission accounting; reuses out buffers.
void DataTransmitter::apply_into(const SlotContext& ctx, const Allocation& allocation,
                                 std::span<UserEndpoint> endpoints,
                                 DataReceiver& receiver, SlotOutcome& out) const {
  require(endpoints.size() == ctx.users.size(), "endpoint/context size mismatch");
  const std::int64_t granted_total = require_feasible_ctx(allocation, ctx);
  // Observation-only accounting, folded into the per-user loop: which
  // constraint bound each grant (constraint (1) when a grant saturated the
  // user's cap while the session wanted more, constraint (2) when the slot's
  // total grant exhausted the base-station capacity) and every RRC state
  // change. Counts are summed here and added once per slot.
  const bool telemetry_on = telemetry::enabled();
  auto& probes = TransmitterTelemetry::instance();
  std::int64_t link_clips = 0;
  RrcTransitionTally transitions;

  const std::size_t n = endpoints.size();
  out.units.assign(n, 0);
  out.kb.assign(n, 0.0);
  out.trans_mj.assign(n, 0.0);
  out.tail_mj.assign(n, 0.0);
  out.rebuffer_s.assign(n, 0.0);
  out.need_kb.assign(n, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    UserEndpoint& endpoint = endpoints[i];
    const UserSlotInfo& info = ctx.users[i];
    const std::int64_t phi = allocation.units[i];
    if (telemetry_on && phi > 0 && phi == info.alloc_cap_units &&
        ctx.params.need_units(info.bitrate_kbps) > info.alloc_cap_units) {
      ++link_clips;
      probes.tracer.record(ctx.slot, checked_i32(i), telemetry::TraceEventKind::kClipLink,
                           as_double(phi));
    }

    // An aborted session has left the cell: no demand, no stall, and its
    // radio — RRC tail included — is no longer this base station's to charge.
    // The fault hook zeroes its allocation cap, so phi is already 0 here.
    if (info.departed) continue;

    // Rebuffering (Eq. 8) depends only on the occupancy at slot start; the
    // shard delivered this slot becomes usable next slot. Sessions that have
    // not arrived yet neither stall nor demand data.
    out.rebuffer_s[i] = info.arrived ? endpoint.buffer.rebuffer_s() : 0.0;
    out.need_kb[i] =
        info.arrived ? std::min(ctx.params.tau_s * info.bitrate_kbps, info.remaining_kb)
                     : 0.0;

    double kb = 0.0;
    double active_s = 0.0;
    if (phi > 0) {
      // The final shard of a session may be partial; it still occupies a full
      // data unit on the air interface (constraint accounting), but only the
      // real bytes cost energy and reach the client.
      kb = std::min(ctx.params.units_to_kb(phi), info.remaining_kb);
      const double fetched = receiver.fetch_from_origin(i, kb);
      receiver.drain(i, fetched);
      kb = fetched;
      out.trans_mj[i] = info.energy_per_kb * kb;
      endpoint.delivered_kb += kb;
      // Convert bytes to playback time on the content timeline so that
      // delivering the whole file yields exactly M_i even for VBR sessions.
      const double playback_s = endpoint.session.advance_playback(
          endpoint.content_time_s, kb);
      endpoint.content_time_s += playback_s;
      endpoint.buffer.deliver(playback_s);
      // The transfer occupies d/v seconds of the slot at link rate; the
      // remainder is tail residue charged by the RRC machine.
      active_s = std::min(kb / info.throughput_kbps, ctx.params.tau_s);
    }
    out.units[i] = phi;
    out.kb[i] = kb;
    const RrcSlotStep rrc = endpoint.rrc.step(active_s, ctx.params.tau_s);
    out.tail_mj[i] = rrc.tail_mj;
    if (telemetry_on && rrc.to != rrc.from) {
      transitions.note(rrc.from, rrc.to);
      probes.tracer.record(ctx.slot, checked_i32(i),
                           telemetry::TraceEventKind::kRrcTransition,
                           as_double(static_cast<int>(rrc.to)));
    }
  }

  if (!telemetry_on) return;
  transitions.flush();
  if (link_clips > 0) probes.eq1_link_clips.add(link_clips);
  if (granted_total > 0 && granted_total == ctx.capacity_units) {
    probes.eq2_capacity_clips.add();
    probes.tracer.record(ctx.slot, -1, telemetry::TraceEventKind::kClipCapacity,
                         as_double(granted_total));
  }
}

}  // namespace jstream
