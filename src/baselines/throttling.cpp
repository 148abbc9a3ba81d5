#include "baselines/throttling.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

ThrottlingScheduler::ThrottlingScheduler(double rate_factor) : rate_factor_(rate_factor) {
  require(std::isfinite(rate_factor_), "throttling rate factor must be finite");
  require(rate_factor_ >= 1.0, "throttling rate factor must be >= 1");
}

void ThrottlingScheduler::reset(std::size_t /*users*/) {}

// jstream: hot-path — per-slot allocation; recycles out.units.
void ThrottlingScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  const std::size_t n = ctx.user_count();
  out.units.assign(n, 0);
  std::int64_t remaining = ctx.capacity_units;
  const std::size_t start = 0;  // persistent per-flow dominance (see rotation.hpp)
  for (std::size_t k = 0; k < n && remaining > 0; ++k) {
    const std::size_t i = (start + k) % n;
    const UserSlotInfo& user = ctx.users[i];
    const std::int64_t paced = ceil_to_count(
        rate_factor_ * ctx.params.tau_s * user.bitrate_kbps / ctx.params.delta_kb);
    const std::int64_t grant =
        std::min({paced, user.alloc_cap_units, remaining});
    if (grant <= 0) continue;
    out.units[i] = grant;
    remaining -= grant;
  }
}

}  // namespace jstream
