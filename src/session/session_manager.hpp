// Dynamic user population for the online service mode.
//
// The gateway's zero-alloc slot path sizes every workspace (receiver queues,
// scheduler state, outcome arrays) to a fixed user count, so the service
// layer does not grow or shrink the population — it owns `capacity` endpoint
// slots and recycles their stable ids. A free slot is parked as departed
// (UserEndpoint::departure_slot in the past ⇒ zero demand, zero charge, the
// paper-invariant validator treats it as gone); binding an arriving session
// rewrites the slot's session state in place (VideoSession, PlaybackBuffer,
// RRC machine, start/departure slots) and bumps its session_epoch. The
// channel substrate (a trace row) belongs to the population slot, never to
// the session, so campaign traces stay valid across rebinds. Since no
// scheduling decision feeds back into sig_i(n), a manager that is handed no
// trace streams its own: a SignalTraceSet::stream over the population's
// SignalModels that the shared pool fills one block ahead of the slot, so
// the Information Collector only loads each slot's row.
//
// Quiescent slots touch nothing: scan_releases is a flag sweep over warm
// arrays; binds and releases — the event boundaries — are the only places
// that may allocate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gateway/user_endpoint.hpp"
#include "radio/signal_trace.hpp"
#include "sim/scenario.hpp"
#include "common/units.hpp"

namespace jstream {

/// Owns `cell.users` recyclable UserEndpoint slots; see the file comment.
class SessionManager {
 public:
  /// Builds the population with build_endpoints(cell) — the identical RNG
  /// draw order keeps precomputed traces row-aligned — then parks every slot
  /// as free. `tail_flush_slots` is the drain window a completed session
  /// stays bound for so its RRC tail is charged (Eq. 4), matching the batch
  /// Simulator's flush. `trace`, when given, is the population's channel
  /// (same population, >= cell.max_slots slots); otherwise the manager
  /// streams one over cell.max_slots slots (see the file comment). Every
  /// endpoint reads its row of it.
  SessionManager(const ScenarioConfig& cell, std::int64_t tail_flush_slots,
                 std::shared_ptr<const SignalTraceSet> trace = nullptr);

  [[nodiscard]] std::span<UserEndpoint> endpoints() noexcept { return endpoints_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return endpoints_.size(); }
  [[nodiscard]] std::size_t active_sessions() const noexcept { return active_; }
  [[nodiscard]] bool has_free_slot() const noexcept { return !free_.empty(); }

  /// The slot id the next bind will recycle. Requires a free slot; callers
  /// use it to look up per-slot schedules (fault departures) before binding.
  [[nodiscard]] std::size_t peek_free() const noexcept { return free_.back(); }
  [[nodiscard]] bool occupied(std::size_t id) const noexcept {
    return occupied_[id] != 0;
  }

  /// Mean content bitrate over the bound sessions (admission snapshot input);
  /// 0 when the cell is idle.
  [[nodiscard]] double mean_active_bitrate_kbps() const noexcept {
    return active_ == 0 ? 0.0 : bitrate_sum_kbps_ / as_double(active_);
  }

  /// Binds `session` to a free slot starting at `slot`. `departure_slot` is
  /// the session's abort slot (UserEndpoint::kNeverSlot for none — callers
  /// pass the fault schedule's draw when it lies in this session's future).
  /// Requires a free slot; returns the recycled slot id.
  std::size_t bind(std::int64_t slot, VideoSession session,
                   std::int64_t departure_slot);

  /// Sweeps the population at the boundary of `slot` and releases every
  /// session that ended: fault-aborted sessions immediately, completed
  /// sessions after their tail-drain window. Calls
  /// `on_end(id, end_slot, completed)` for each release, after the slot is
  /// back on the free list. Allocation-free.
  template <typename OnEnd>
  void scan_releases(std::int64_t slot, OnEnd&& on_end) {
    for (std::size_t id = 0; id < endpoints_.size(); ++id) {
      if (occupied_[id] == 0) continue;
      UserEndpoint& endpoint = endpoints_[id];
      if (endpoint.departed(slot)) {
        // Mid-stream abort: the slot freed the moment the abort slot arrives.
        const std::int64_t end_slot = endpoint.departure_slot;
        release(id, slot);
        on_end(id, end_slot, /*completed=*/false);
        continue;
      }
      if (!endpoint.active()) {
        if (drain_until_[id] < 0) {
          // Playback just finished: keep the slot bound through the RRC tail.
          drain_until_[id] = slot + tail_flush_slots_;
        } else if (slot >= drain_until_[id]) {
          release(id, slot);
          on_end(id, slot, /*completed=*/true);
        }
      }
    }
  }

 private:
  void release(std::size_t id, std::int64_t slot);

  std::vector<UserEndpoint> endpoints_;
  std::shared_ptr<const SignalTraceSet> channels_;  ///< every endpoint's rows
  std::vector<std::uint8_t> occupied_;
  std::vector<std::size_t> free_;          ///< stack of free slot ids
  std::vector<std::int64_t> drain_until_;  ///< tail-drain deadline, -1 = none
  std::vector<double> bound_bitrate_kbps_; ///< bitrate added to the sum at bind
  std::size_t active_ = 0;
  double bitrate_sum_kbps_ = 0.0;
  std::int64_t tail_flush_slots_ = 0;
  double tau_s_ = 1.0;
  RadioProfile radio_;
};

}  // namespace jstream
