// Per-user simulation state bundled for the gateway framework: the radio
// channel, the streaming session, the client playback buffer, and the RRC
// machine that accounts tail energy.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "media/playback_buffer.hpp"
#include "media/video_session.hpp"
#include "radio/rrc.hpp"
#include "radio/signal_model.hpp"
#include "radio/signal_trace.hpp"

namespace jstream {

/// One mobile user as seen by the gateway.
struct UserEndpoint {
  /// departure_slot value meaning "streams to the end of the run".
  static constexpr std::int64_t kNeverSlot = std::numeric_limits<std::int64_t>::max();

  std::unique_ptr<SignalModel> signal;
  VideoSession session;
  PlaybackBuffer buffer;
  RrcStateMachine rrc;
  double delivered_kb = 0.0;   ///< content pushed over the air so far
  double content_time_s = 0.0; ///< playback position of the delivered prefix
  std::int64_t start_slot = 0; ///< first slot this session exists (arrivals)
  /// First slot this session no longer exists. This is the single source of
  /// truth for every departure path — fault-injected mid-stream aborts (the
  /// Simulator stamps the FaultSchedule's drawn slots here) and session-layer
  /// departures alike; the InfoCollector derives UserSlotInfo::departed from
  /// it. kNeverSlot = streams to the end.
  std::int64_t departure_slot = kNeverSlot;
  /// Bumped by the session layer each time this population slot is bound to a
  /// new session, so per-user consumers (the paper-invariant validator's
  /// shadow state) can detect mid-run rebinds. 0 for static populations.
  std::int32_t session_epoch = 0;

  /// Precomputed channel substrate (campaign engine). When attached, the
  /// InfoCollector reads sig_i(n) from the trace matrix instead of driving
  /// `signal` — an array load replaces the per-slot virtual call; the link
  /// fits run over the slot's signal lane either way. Non-owning: the
  /// Simulator (or whoever attaches it) keeps the shared_ptr alive for the
  /// run.
  const SignalTraceSet* trace = nullptr;
  std::size_t trace_user = 0;  ///< this endpoint's row in `trace`

  void attach_trace(const SignalTraceSet* trace_set, std::size_t user) noexcept {
    trace = trace_set;
    trace_user = user;
  }

  UserEndpoint(std::unique_ptr<SignalModel> signal_model, VideoSession video,
               RadioProfile radio, double tau_s, std::int64_t session_start_slot = 0)
      : signal(std::move(signal_model)),
        session(std::move(video)),
        buffer(session.total_playback_s(), tau_s),
        rrc(radio),
        start_slot(session_start_slot) {}

  /// True once the session has started by `slot`.
  [[nodiscard]] bool arrived(std::int64_t slot) const noexcept {
    return slot >= start_slot;
  }

  /// True once the session has ended (fault abort or session-layer departure).
  [[nodiscard]] bool departed(std::int64_t slot) const noexcept {
    return slot >= departure_slot;
  }

  /// Stamp the departure slot (kNeverSlot clears it).
  void depart_at(std::int64_t slot) noexcept { departure_slot = slot; }

  /// Content still to be delivered, KB.
  [[nodiscard]] double remaining_kb() const noexcept {
    return session.size_kb() - delivered_kb;
  }

  /// True while the user still needs scheduling: content left to deliver or
  /// playback still running.
  [[nodiscard]] bool active() const noexcept {
    return remaining_kb() > 0.0 || !buffer.playback_finished();
  }
};

}  // namespace jstream
