// SALSA baseline (Ra et al. [17], Section VI-B): an energy-delay trade-off
// scheduler that defers transmission until the channel is favorable or the
// backlog forces it, while keeping the waiting queue finite. As the paper
// notes, SALSA ignores tail energy entirely — deferrals create many short
// idle gaps whose tail cost it never accounts for.
//
// Re-implementation of the decision rule: track an EWMA of the per-KB
// transmission cost; transmit when the current cost is below the EWMA (good
// channel) or when the client buffer is close to underrun (delay bound).
#pragma once

#include <string>
#include <vector>

#include "gateway/scheduler.hpp"

namespace jstream {

/// Channel-threshold + delay-bound deferral scheduling.
class SalsaScheduler final : public Scheduler {
 public:
  struct Params {
    double cost_ratio = 1.0;     ///< transmit when cost <= ratio * EWMA cost
    double ewma_alpha = 0.05;    ///< smoothing of the per-KB cost average
    double panic_buffer_s = 3.0; ///< transmit regardless when buffer below this
    double target_buffer_s = 15.0; ///< fill toward this many seconds when sending
  };

  SalsaScheduler();  ///< default parameters
  explicit SalsaScheduler(Params params);

  [[nodiscard]] std::string name() const override { return "salsa"; }
  void reset(std::size_t users) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  std::vector<double> ewma_cost_;  ///< per-user average energy-per-KB estimate
};

}  // namespace jstream
