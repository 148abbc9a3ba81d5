#include "core/rtma.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "core/energy_threshold.hpp"
#include "telemetry/registry.hpp"
#include "common/units.hpp"

namespace jstream {

namespace {

struct RtmaTelemetry {
  telemetry::Counter& allocations;
  telemetry::Counter& admitted_users;
  telemetry::Counter& rejected_users;
  telemetry::Gauge& threshold_dbm;
  telemetry::SlotTracer& tracer;

  static RtmaTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static RtmaTelemetry probes{registry.counter("rtma.allocations"),
                                registry.counter("rtma.admitted_users"),
                                registry.counter("rtma.rejected_users"),
                                registry.gauge("rtma.threshold_dbm"),
                                registry.tracer()};
    return probes;
  }
};

}  // namespace

RtmaScheduler::RtmaScheduler(RtmaConfig config) : config_(config) {
  // +inf tail power prices every slot out of the budget, so nothing is ever
  // sent; an infinite signal range end fails only at the first Eq. 24 fit.
  // NaN tail power (the radio's own tail average) and an infinite budget (no
  // budget) are the documented sentinels.
  require(std::isnan(config_.tail_power_mw) || std::isfinite(config_.tail_power_mw),
          "RTMA tail power must be finite (NaN selects the radio's tail average)");
  require(std::isfinite(config_.min_dbm), "RTMA signal range minimum must be finite");
  require(std::isfinite(config_.max_dbm), "RTMA signal range maximum must be finite");
  require(config_.energy_budget_mj > 0.0, "energy budget must be positive");
  require(config_.min_dbm < config_.max_dbm, "signal range is empty");
}

void RtmaScheduler::reset(std::size_t users) {
  last_threshold_dbm_ = -std::numeric_limits<double>::infinity();
  order_.reserve(users);
  need_.reserve(users);
}

void RtmaScheduler::set_energy_budget(double budget_mj) {
  require(budget_mj > 0.0, "energy budget must be positive");
  config_.energy_budget_mj = budget_mj;
}

// jstream: hot-path — per-slot allocation; order_/need_ workspaces are
// reserved in reset().
void RtmaScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  const std::size_t n = ctx.user_count();
  const SlotSoa& soa = ctx.soa;
  require(soa.size() == n, "SlotContext::finalize() not called before allocate");
  out.units.assign(n, 0);

  // Eq. 12: energy budget -> admission threshold (steps 6 of Algorithm 1).
  double threshold = -std::numeric_limits<double>::infinity();
  if (std::isfinite(config_.energy_budget_mj)) {
    EnergyThresholdSpec spec;
    spec.budget_mj = config_.energy_budget_mj;
    spec.tau_s = ctx.params.tau_s;
    // P_tail defaults to the tail-window average power (Eq. 12's "tail energy
    // in a slot"); see RadioProfile::mean_tail_power_mw.
    spec.tail_power_mw =
        std::isnan(config_.tail_power_mw)
            ? (ctx.radio != nullptr ? ctx.radio->mean_tail_power_mw()
                                    : paper_3g_profile().mean_tail_power_mw())
            : config_.tail_power_mw;
    spec.min_dbm = config_.min_dbm;
    spec.max_dbm = config_.max_dbm;
    threshold = signal_threshold_dbm(spec, *ctx.throughput, *ctx.power);
  }
  last_threshold_dbm_ = threshold;

  // Observation-only: record the Eq. 12 threshold and which users it admits
  // or filters this slot. Rejections are the paper's energy-saving lever, so
  // they are also traced per user; the counts are summed here and added once.
  if (telemetry::enabled()) {
    auto& probes = RtmaTelemetry::instance();
    probes.allocations.add();
    probes.threshold_dbm.set(threshold);
    std::int64_t admitted = 0;
    std::int64_t rejected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!soa.needs_data(i)) continue;
      if (soa.signal_dbm[i] < threshold) {
        ++rejected;
        probes.tracer.record(ctx.slot, checked_i32(i),
                             telemetry::TraceEventKind::kReject,
                             soa.signal_dbm[i]);
      } else {
        ++admitted;
      }
    }
    if (admitted > 0) probes.admitted_users.add(admitted);
    if (rejected > 0) probes.rejected_users.add(rejected);
  }

  // Steps 1-3: sort by required data rate ascending; compute per-slot needs.
  // The member workspaces recycle their storage, so steady-state slots do not
  // allocate; both passes read the SoA lanes, not the AoS records.
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return soa.bitrate_kbps[a] < soa.bitrate_kbps[b];
  });
  need_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    need_[i] = ctx.params.need_units(soa.bitrate_kbps[i]);
  }

  // Steps 4-15: iterative passes; each pass grants each eligible user at most
  // its need, so early users cannot seize the whole base station.
  std::int64_t remaining = ctx.capacity_units;
  bool progressed = true;
  while (remaining > 0 && progressed) {
    progressed = false;
    for (std::size_t idx : order_) {
      if (remaining <= 0) break;
      if (soa.signal_dbm[idx] < threshold) continue;  // Eq. 12 admission filter
      const std::int64_t sup =
          std::min(soa.alloc_cap_units[idx] - out.units[idx], remaining);
      if (sup <= 0) continue;
      const std::int64_t grant = std::min(need_[idx], sup);
      if (grant <= 0) continue;
      out.units[idx] += grant;
      remaining -= grant;
      progressed = true;
    }
  }
}

}  // namespace jstream
