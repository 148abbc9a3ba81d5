// ON-OFF baseline (Hoque et al. [14], Section VI-A): the client-player
// protocol used by YouTube/Dailymotion/Vimeo Android players. The player
// reads from the socket at full rate (ON) until the buffer reaches a high
// watermark, then stops reading (OFF) until it drains to a low watermark.
// During OFF no data flows but the radio sits in the tail states, which is
// precisely the tail-energy waste the paper's introduction describes.
#pragma once

#include <string>
#include <vector>

#include "gateway/scheduler.hpp"

namespace jstream {

/// Buffer-watermark ON/OFF delivery.
class OnOffScheduler final : public Scheduler {
 public:
  /// Watermarks in seconds of buffered playback.
  OnOffScheduler(double low_watermark_s = 10.0, double high_watermark_s = 40.0);

  [[nodiscard]] std::string name() const override { return "onoff"; }
  void reset(std::size_t users) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  [[nodiscard]] double low_watermark_s() const noexcept { return low_s_; }
  [[nodiscard]] double high_watermark_s() const noexcept { return high_s_; }

 private:
  double low_s_;
  double high_s_;
  std::vector<bool> on_;  ///< per-user ON phase flag
};

}  // namespace jstream
