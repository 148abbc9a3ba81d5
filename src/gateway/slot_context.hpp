// Scheduler input: everything the Information Collector knows about one slot.
//
// This is the cross-layer interface of the paper — required video data rates
// (application layer), RSSI (physical layer), RRC idle timers (RRC layer) and
// base-station capacity (network layer) are delivered to the Scheduler as one
// coherent snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.hpp"
#include "net/transmission.hpp"
#include "radio/link_model.hpp"
#include "radio/radio_profile.hpp"

namespace jstream {

/// Cross-layer view of one user in one slot.
///
/// `throughput_kbps` and `energy_per_kb` cache the link-model fits for the
/// user's current signal. Snapshot producers (InfoCollector, test fixtures)
/// evaluate the models once per user per slot; schedulers and the
/// transmitter read the cached values instead of making repeated virtual
/// model calls in their cost loops.
struct UserSlotInfo {
  bool arrived = true;          ///< session has started (see UserEndpoint::start_slot)
  bool needs_data = false;      ///< content remains to be delivered
  double signal_dbm = 0.0;      ///< sig_i(n)
  double bitrate_kbps = 0.0;    ///< p_i(n)
  double throughput_kbps = 0.0; ///< v(sig_i): Definition 3 fit, cached per slot
  double energy_per_kb = 0.0;   ///< P(sig_i): Definition 4 fit (mJ/KB), cached per slot
  std::int64_t link_units = 0;  ///< constraint (1) cap: floor(tau*v(sig)/delta)
  std::int64_t alloc_cap_units = 0;  ///< min(link cap, units of remaining content)
  double remaining_kb = 0.0;    ///< content not yet delivered
  double buffer_s = 0.0;        ///< r_i(n): client buffer occupancy, seconds
  double elapsed_play_s = 0.0;  ///< m_i(n)
  double total_play_s = 0.0;    ///< M_i
  double rrc_idle_s = 0.0;      ///< time since last transmission
  bool rrc_promoted = false;    ///< radio has transmitted at least once
  bool playback_done = false;   ///< client finished playing the whole session
  /// Session ended mid-stream — a fault-injected abort or a session-layer
  /// departure; both stamp UserEndpoint::departure_slot and the collector
  /// derives this flag from it (one departure code path). The user is gone:
  /// zero allocation cap, no demand, no stall accounting, and its radio is no
  /// longer charged. Implies alloc_cap_units == 0 and needs_data == false.
  bool departed = false;
  /// Which session currently occupies this population slot (see
  /// UserEndpoint::session_epoch). Lets per-user shadow state (the
  /// paper-invariant validator) detect mid-run rebinds. 0 in batch runs.
  std::int32_t session_epoch = 0;
};

/// Structure-of-arrays mirror of the per-user snapshot fields the scheduler
/// hot loops actually touch. Each field is a contiguous cache-line-aligned
/// array indexed by user, so per-slot cost builds (EMA, RTMA, the baselines)
/// stream over plain `double`/`int64` lanes the autovectorizer can handle
/// instead of striding through 100-byte AoS records.
///
/// Built from `SlotContext::users` by `SlotContext::finalize()` in one linear
/// pass; every snapshot producer (InfoCollector::collect_into, test fixtures,
/// the fault layer's post-degrade refresh in Framework::run_slot) calls it
/// after the AoS records settle.
/// InfoCollector::collect_into also stages the slot's signal lane and both
/// link-fit lanes here before it fills the AoS records from them. Consumers
/// guard with `soa.size() == user_count()` so a producer that skips the
/// rebuild fails loudly instead of reading stale lanes.
struct SlotSoa {
  simd::AlignedVec<double> signal_dbm;
  simd::AlignedVec<double> bitrate_kbps;
  simd::AlignedVec<double> throughput_kbps;
  simd::AlignedVec<double> energy_per_kb;
  simd::AlignedVec<double> remaining_kb;
  simd::AlignedVec<double> buffer_s;
  simd::AlignedVec<double> rrc_idle_s;
  simd::AlignedVec<std::int64_t> link_units;
  simd::AlignedVec<std::int64_t> alloc_cap_units;
  /// Bit-packed per-user booleans (kArrived | kNeedsData | ...).
  simd::AlignedVec<std::uint8_t> flags;

  static constexpr std::uint8_t kArrived = 1U << 0U;
  static constexpr std::uint8_t kNeedsData = 1U << 1U;
  static constexpr std::uint8_t kRrcPromoted = 1U << 2U;
  static constexpr std::uint8_t kPlaybackDone = 1U << 3U;
  static constexpr std::uint8_t kDeparted = 1U << 4U;

  [[nodiscard]] std::size_t size() const noexcept { return flags.size(); }
  [[nodiscard]] bool needs_data(std::size_t i) const noexcept {
    return (flags[i] & kNeedsData) != 0;
  }
  [[nodiscard]] bool rrc_promoted(std::size_t i) const noexcept {
    return (flags[i] & kRrcPromoted) != 0;
  }
  [[nodiscard]] bool departed(std::size_t i) const noexcept {
    return (flags[i] & kDeparted) != 0;
  }

  /// One linear pass over the AoS records; buffers only ever grow, so a
  /// steady-state rebuild performs no heap allocation.
  void rebuild(std::span<const UserSlotInfo> users) {
    const std::size_t n = users.size();
    signal_dbm.resize(n);
    bitrate_kbps.resize(n);
    throughput_kbps.resize(n);
    energy_per_kb.resize(n);
    remaining_kb.resize(n);
    buffer_s.resize(n);
    rrc_idle_s.resize(n);
    link_units.resize(n);
    alloc_cap_units.resize(n);
    flags.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const UserSlotInfo& user = users[i];
      signal_dbm[i] = user.signal_dbm;
      bitrate_kbps[i] = user.bitrate_kbps;
      throughput_kbps[i] = user.throughput_kbps;
      energy_per_kb[i] = user.energy_per_kb;
      remaining_kb[i] = user.remaining_kb;
      buffer_s[i] = user.buffer_s;
      rrc_idle_s[i] = user.rrc_idle_s;
      link_units[i] = user.link_units;
      alloc_cap_units[i] = user.alloc_cap_units;
      std::uint8_t bits = 0;
      if (user.arrived) bits |= kArrived;
      if (user.needs_data) bits |= kNeedsData;
      if (user.rrc_promoted) bits |= kRrcPromoted;
      if (user.playback_done) bits |= kPlaybackDone;
      if (user.departed) bits |= kDeparted;
      flags[i] = bits;
    }
  }
};

/// Immutable per-slot snapshot handed to Scheduler::allocate.
struct SlotContext {
  std::int64_t slot = 0;
  SlotParams params;
  std::int64_t capacity_units = 0;  ///< constraint (2) cap for this slot
  std::vector<UserSlotInfo> users;
  /// SoA mirror of `users`; see SlotSoa. Valid only after finalize().
  SlotSoa soa;
  const ThroughputModel* throughput = nullptr;
  const PowerModel* power = nullptr;
  const RadioProfile* radio = nullptr;

  [[nodiscard]] std::size_t user_count() const noexcept { return users.size(); }

  /// Rebuilds the SoA mirror from `users`. Producers call this once the AoS
  /// records are final for the slot (and again after mutating them, as the
  /// fault layer's degrade hook does).
  void finalize() { soa.rebuild(users); }
};

}  // namespace jstream
