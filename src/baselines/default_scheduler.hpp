// The paper's baseline ("default strategy", Section VI-A): deliver as much as
// possible to each user to fully use the throughput. The serving order
// rotates across slots (a backlogged base station drains whoever is next in
// the round), so within any single slot a handful of users seize the whole
// capacity — exactly the per-slot unfairness Figures 2-3 illustrate — while
// across slots every radio is touched every few seconds and therefore never
// leaves the expensive DCH/FACH tail states.
#pragma once

#include <string>

#include "gateway/scheduler.hpp"

namespace jstream {

/// Greedy max-rate allocation in slot-rotating user order.
class DefaultScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "default"; }
  void reset(std::size_t users) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;
};

}  // namespace jstream
