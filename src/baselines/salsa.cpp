#include "baselines/salsa.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/rotation.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

SalsaScheduler::SalsaScheduler() : SalsaScheduler(Params{}) {}

SalsaScheduler::SalsaScheduler(Params params) : params_(params) {
  require(params_.cost_ratio > 0.0, "cost ratio must be positive");
  require(params_.ewma_alpha > 0.0 && params_.ewma_alpha <= 1.0,
          "EWMA alpha must be in (0,1]");
  require(params_.panic_buffer_s >= 0.0, "panic buffer must be non-negative");
  require(params_.target_buffer_s > params_.panic_buffer_s,
          "target buffer must exceed the panic buffer");
}

void SalsaScheduler::reset(std::size_t users) { ewma_cost_.assign(users, 0.0); }

// jstream: hot-path — per-slot allocation; recycles out.units.
void SalsaScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  require(ewma_cost_.size() == ctx.user_count(), "SALSA not reset for this user count");
  const std::size_t n = ctx.user_count();
  out.units.assign(n, 0);
  std::int64_t remaining = ctx.capacity_units;
  const std::size_t start = rotation_start(ctx.slot, n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (start + k) % n;
    const UserSlotInfo& user = ctx.users[i];
    const double cost = user.energy_per_kb;
    // Keep learning the channel average even on deferral slots.
    double& ewma = ewma_cost_[i];
    ewma = ewma == 0.0 ? cost : (1.0 - params_.ewma_alpha) * ewma + params_.ewma_alpha * cost;
    if (user.alloc_cap_units <= 0 || remaining <= 0) continue;

    const bool good_channel = cost <= params_.cost_ratio * ewma;
    const bool panic = user.buffer_s <= params_.panic_buffer_s;
    if (!good_channel && !panic) continue;  // defer to a better slot

    // Fill toward the target buffer level.
    const double deficit_s = std::max(params_.target_buffer_s - user.buffer_s, 0.0);
    const std::int64_t wanted =
        ceil_to_count(deficit_s * user.bitrate_kbps / ctx.params.delta_kb);
    const std::int64_t grant = std::min({wanted, user.alloc_cap_units, remaining});
    if (grant <= 0) continue;
    out.units[i] = grant;
    remaining -= grant;
  }
}

}  // namespace jstream
