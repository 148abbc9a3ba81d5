// Information Collector component (Section III-A).
//
// Extracts per-user signal strength and required data rate each slot and
// assembles the cross-layer SlotContext handed to the Scheduler. In a real
// deployment RSSI arrives in user requests and bitrates from DPI middleboxes;
// here both are read from the simulated endpoints (see DESIGN.md
// substitutions).
#pragma once

#include <span>

#include "gateway/slot_context.hpp"
#include "gateway/user_endpoint.hpp"
#include "net/base_station.hpp"

namespace jstream {

/// Builds per-slot scheduler snapshots from endpoint state.
class InfoCollector {
 public:
  /// `link` supplies Definition 3/4 fits; `radio` the RRC parameter set.
  InfoCollector(SlotParams params, LinkModel link, RadioProfile radio);

  /// Assembles the SlotContext for `slot`. `endpoints` supplies signal
  /// (from an attached trace row or the live SignalModel), session, buffer,
  /// and RRC state; `bs` supplies S(n). The Definition 3/4 fits are
  /// evaluated once per slot over the slot's signal lane with the link
  /// model's batch forms.
  [[nodiscard]] SlotContext collect(std::int64_t slot,
                                    std::span<UserEndpoint> endpoints,
                                    const BaseStation& bs) const;

  /// Buffer-reusing variant of collect: overwrites `ctx` in place, reusing
  /// its `users` storage so a steady-state caller (Framework::run_slot)
  /// performs no heap allocation per slot.
  void collect_into(std::int64_t slot, std::span<UserEndpoint> endpoints,
                    const BaseStation& bs, SlotContext& ctx) const;

  [[nodiscard]] const SlotParams& params() const noexcept { return params_; }
  [[nodiscard]] const LinkModel& link() const noexcept { return link_; }
  [[nodiscard]] const RadioProfile& radio() const noexcept { return radio_; }

 private:
  SlotParams params_;
  LinkModel link_;
  RadioProfile radio_;
};

}  // namespace jstream
