// Throttling baseline (Hoque et al. [15], Section VI-A): the server paces
// delivery at a rate above the encoding rate but below the bulk transfer
// capacity, keeping the transmission continuous. Small rebuffering at low
// load, but no notion of multi-user competition or energy.
#pragma once

#include <string>

#include "gateway/scheduler.hpp"

namespace jstream {

/// Paced delivery at `rate_factor` times the encoding rate, every slot.
class ThrottlingScheduler final : public Scheduler {
 public:
  /// `rate_factor` > 1 keeps the client buffer slowly growing (default 1.25,
  /// a common YouTube-style throttle ratio).
  explicit ThrottlingScheduler(double rate_factor = 1.25);

  [[nodiscard]] std::string name() const override { return "throttling"; }
  void reset(std::size_t users) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  [[nodiscard]] double rate_factor() const noexcept { return rate_factor_; }

 private:
  double rate_factor_;
};

}  // namespace jstream
