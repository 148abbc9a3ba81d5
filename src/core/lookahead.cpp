#include "core/lookahead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

LookaheadScheduler::LookaheadScheduler(LookaheadConfig config,
                                       std::vector<std::vector<double>> signal_forecast_dbm)
    : config_(config), forecast_dbm_(std::move(signal_forecast_dbm)) {
  require(config_.horizon_slots > 0, "horizon must be positive");
  require(config_.safety_buffer_s >= 0.0, "safety buffer must be non-negative");
  require(config_.prefetch_buffer_s > config_.safety_buffer_s,
          "prefetch target must exceed the safety level");
  require(config_.price_slack >= 1.0, "price slack must be >= 1");
  require(!forecast_dbm_.empty(), "forecast must cover at least one user");
}

void LookaheadScheduler::reset(std::size_t users) {
  require(users == forecast_dbm_.size(),
          "forecast population does not match the scenario");
  order_.reserve(users);
}

double LookaheadScheduler::best_future_price(const SlotContext& ctx,
                                             std::size_t user) const {
  const std::vector<double>& trace = forecast_dbm_[user];
  double best = std::numeric_limits<double>::infinity();
  for (std::int64_t ahead = 1; ahead <= config_.horizon_slots; ++ahead) {
    const auto index =
        std::min(checked_size(ctx.slot + ahead), trace.size() - 1);
    best = std::min(best, ctx.power->energy_per_kb(trace[index]));
  }
  return best;
}

// jstream: hot-path — per-slot allocation; recycles out.units, and order_ is
// reserved in reset().
void LookaheadScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  const std::size_t n = ctx.user_count();
  require(forecast_dbm_.size() == n, "forecast/user count mismatch");
  out.units.assign(n, 0);
  std::int64_t remaining = ctx.capacity_units;

  // Most urgent (smallest buffer) first so safety transmissions never lose
  // capacity to prefetching peers.
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return ctx.users[a].buffer_s < ctx.users[b].buffer_s;
  });

  for (std::size_t i : order_) {
    if (remaining <= 0) break;
    const UserSlotInfo& user = ctx.users[i];
    if (user.alloc_cap_units <= 0) continue;

    std::int64_t wanted = 0;
    if (user.buffer_s < config_.safety_buffer_s) {
      // Catch up well past the safety level so safety refills batch into one
      // transmission per stretch instead of alternating transmit/idle slots
      // (which would bleed tail energy).
      const double deficit_s =
          config_.safety_buffer_s + config_.catchup_margin_s - user.buffer_s;
      wanted = ceil_to_count(deficit_s * user.bitrate_kbps / ctx.params.delta_kb);
    } else {
      const double now_price = user.energy_per_kb;
      if (now_price <= config_.price_slack * best_future_price(ctx, i)) {
        const double deficit_s =
            std::max(config_.prefetch_buffer_s - user.buffer_s, 0.0);
        wanted = ceil_to_count(deficit_s * user.bitrate_kbps / ctx.params.delta_kb);
      }
    }
    const std::int64_t grant = std::min({wanted, user.alloc_cap_units, remaining});
    if (grant <= 0) continue;
    out.units[i] = grant;
    remaining -= grant;
  }
}

}  // namespace jstream
