#include "baselines/estreamer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

EStreamerScheduler::EStreamerScheduler() : EStreamerScheduler(Params{}) {}

EStreamerScheduler::EStreamerScheduler(Params params) : params_(params) {
  // +inf would pass the checks below and make every burst's deficit infinite.
  require(std::isfinite(params_.buffer_capacity_s),
          "eStreamer buffer capacity must be finite");
  // NaN would fail the check below under its "non-negative" message.
  require(std::isfinite(params_.resume_threshold_s),
          "eStreamer resume threshold must be finite");
  require(params_.resume_threshold_s >= 0.0, "resume threshold must be non-negative");
  require(params_.buffer_capacity_s > params_.resume_threshold_s,
          "buffer capacity must exceed the resume threshold");
}

void EStreamerScheduler::reset(std::size_t users) { bursting_.assign(users, true); }

// jstream: hot-path — per-slot allocation; recycles out.units.
void EStreamerScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  require(bursting_.size() == ctx.user_count(),
          "EStreamer not reset for this user count");
  const std::size_t n = ctx.user_count();
  out.units.assign(n, 0);
  std::int64_t remaining = ctx.capacity_units;
  const std::size_t start = 0;  // persistent per-flow dominance (see rotation.hpp)
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (start + k) % n;
    const UserSlotInfo& user = ctx.users[i];
    if (user.buffer_s >= params_.buffer_capacity_s) bursting_[i] = false;
    if (user.buffer_s <= params_.resume_threshold_s) bursting_[i] = true;
    if (!bursting_[i] || remaining <= 0) continue;
    // Burst: fill the remaining buffer capacity as fast as the link allows,
    // regardless of the current signal strength (signal-blind by design).
    const double deficit_s = std::max(params_.buffer_capacity_s - user.buffer_s, 0.0);
    const std::int64_t wanted =
        ceil_to_count(deficit_s * user.bitrate_kbps / ctx.params.delta_kb);
    const std::int64_t grant = std::min({wanted, user.alloc_cap_units, remaining});
    if (grant <= 0) continue;
    out.units[i] = grant;
    remaining -= grant;
  }
}

}  // namespace jstream
