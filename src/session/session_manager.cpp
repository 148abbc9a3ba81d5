#include "session/session_manager.hpp"

#include <utility>

#include "common/error.hpp"

namespace jstream {

SessionManager::SessionManager(const ScenarioConfig& cell,
                               std::int64_t tail_flush_slots,
                               std::shared_ptr<const SignalTraceSet> trace)
    : endpoints_(build_endpoints(cell)),
      occupied_(cell.users, 0),
      drain_until_(cell.users, -1),
      bound_bitrate_kbps_(cell.users, 0.0),
      tail_flush_slots_(tail_flush_slots),
      tau_s_(cell.slot.tau_s),
      radio_(cell.radio) {
  require(tail_flush_slots_ >= 0, "tail flush window must be non-negative");
  if (trace != nullptr) {
    require(trace->users() == cell.users, "trace population mismatch");
    require(trace->slots() >= cell.max_slots, "trace shorter than the horizon");
  }
  channels_ = attach_channels(endpoints_, std::move(trace), cell.max_slots);
  // All slots start free: parked as departed-before-start so the collector
  // reports them gone from slot 0 on. Popping from the back hands out low
  // ids first.
  free_.reserve(endpoints_.size());
  for (std::size_t id = endpoints_.size(); id > 0; --id) {
    free_.push_back(id - 1);
    endpoints_[id - 1].depart_at(0);
  }
}

std::size_t SessionManager::bind(std::int64_t slot, VideoSession session,
                                 std::int64_t departure_slot) {
  require(!free_.empty(), "bind requires a free population slot");
  require(departure_slot > slot, "departure must lie in the session's future");
  const std::size_t id = free_.back();
  free_.pop_back();

  UserEndpoint& endpoint = endpoints_[id];
  endpoint.session = std::move(session);
  endpoint.buffer = PlaybackBuffer(endpoint.session.total_playback_s(), tau_s_);
  endpoint.rrc = RrcStateMachine(radio_);
  endpoint.delivered_kb = 0.0;
  endpoint.content_time_s = 0.0;
  endpoint.start_slot = slot;
  endpoint.depart_at(departure_slot);
  ++endpoint.session_epoch;

  occupied_[id] = 1;
  drain_until_[id] = -1;
  bound_bitrate_kbps_[id] = endpoint.session.bitrate_at_time(0.0);
  bitrate_sum_kbps_ += bound_bitrate_kbps_[id];
  ++active_;
  return id;
}

void SessionManager::release(std::size_t id, std::int64_t slot) {
  occupied_[id] = 0;
  drain_until_[id] = -1;
  bitrate_sum_kbps_ -= bound_bitrate_kbps_[id];
  bound_bitrate_kbps_[id] = 0.0;
  --active_;
  UserEndpoint& endpoint = endpoints_[id];
  // A completed session's slot parks as departed from here on (an aborted
  // session already carries an earlier stamp that stays in force).
  if (endpoint.departure_slot > slot) endpoint.depart_at(slot);
  free_.push_back(id);
}

}  // namespace jstream
