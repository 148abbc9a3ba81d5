#include "baselines/onoff.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace jstream {

OnOffScheduler::OnOffScheduler(double low_watermark_s, double high_watermark_s)
    : low_s_(low_watermark_s), high_s_(high_watermark_s) {
  require(low_s_ >= 0.0, "low watermark must be non-negative");
  require(high_s_ > low_s_, "high watermark must exceed the low watermark");
}

void OnOffScheduler::reset(std::size_t users) { on_.assign(users, true); }

// jstream: hot-path — per-slot allocation; recycles out.units.
void OnOffScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  require(on_.size() == ctx.user_count(), "ON-OFF not reset for this user count");
  const std::size_t n = ctx.user_count();
  out.units.assign(n, 0);
  std::int64_t remaining = ctx.capacity_units;
  const std::size_t start = 0;  // persistent per-flow dominance (see rotation.hpp)
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (start + k) % n;
    const UserSlotInfo& user = ctx.users[i];
    // Watermark crossings flip the phase regardless of allocation outcome.
    if (user.buffer_s >= high_s_) on_[i] = false;
    if (user.buffer_s <= low_s_) on_[i] = true;
    if (!on_[i] || remaining <= 0) continue;
    const std::int64_t grant = std::min(user.alloc_cap_units, remaining);
    if (grant <= 0) continue;
    out.units[i] = grant;
    remaining -= grant;
  }
}

}  // namespace jstream
