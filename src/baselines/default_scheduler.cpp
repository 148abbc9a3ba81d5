#include "baselines/default_scheduler.hpp"

#include <algorithm>

#include "baselines/rotation.hpp"
#include "common/error.hpp"

namespace jstream {

void DefaultScheduler::reset(std::size_t /*users*/) {}

// jstream: hot-path — per-slot allocation; recycles out.units.
void DefaultScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  const std::size_t n = ctx.user_count();
  const SlotSoa& soa = ctx.soa;
  require(soa.size() == n, "SlotContext::finalize() not called before allocate");
  out.units.assign(n, 0);
  std::int64_t remaining = ctx.capacity_units;
  const std::size_t start = rotation_start(ctx.slot, n);
  // The grant loop reads the contiguous alloc-cap lane instead of striding
  // through the AoS records.
  for (std::size_t k = 0; k < n && remaining > 0; ++k) {
    const std::size_t i = (start + k) % n;
    const std::int64_t grant = std::min(soa.alloc_cap_units[i], remaining);
    if (grant <= 0) continue;
    out.units[i] = grant;
    remaining -= grant;
  }
}

}  // namespace jstream
