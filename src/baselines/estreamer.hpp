// EStreamer baseline (Hoque et al. [16], Section VI-B): a cross-layer
// multimedia delivery system that sends content in large bursts sized to the
// client buffer capacity, idling between bursts to let the radio rest. As the
// paper notes, EStreamer ignores signal strength — bursts fire based on
// buffer state alone, so they may run during expensive channel conditions,
// and the inter-burst idle periods still pay tail energy.
#pragma once

#include <string>
#include <vector>

#include "gateway/scheduler.hpp"

namespace jstream {

/// Buffer-capacity burst delivery.
class EStreamerScheduler final : public Scheduler {
 public:
  struct Params {
    double buffer_capacity_s = 30.0;  ///< burst fills to this playback depth
    double resume_threshold_s = 6.0;  ///< next burst starts below this level
  };

  EStreamerScheduler();  ///< default parameters
  explicit EStreamerScheduler(Params params);

  [[nodiscard]] std::string name() const override { return "estreamer"; }
  void reset(std::size_t users) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  std::vector<bool> bursting_;  ///< per-user burst phase flag
};

}  // namespace jstream
