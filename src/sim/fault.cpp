#include "sim/fault.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/scenario.hpp"
#include "telemetry/registry.hpp"

namespace jstream {

namespace {

struct FaultTelemetry {
  telemetry::Counter& schedules;
  telemetry::Counter& outage_user_slots;
  telemetry::Counter& stale_user_slots;
  telemetry::Counter& stale_clipped_units;
  telemetry::Counter& departures;
  telemetry::Counter& capacity_degraded_slots;

  static FaultTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static FaultTelemetry probes{registry.counter("fault.schedules"),
                                 registry.counter("fault.outage_user_slots"),
                                 registry.counter("fault.stale_user_slots"),
                                 registry.counter("fault.stale_clipped_units"),
                                 registry.counter("fault.departures"),
                                 registry.counter("fault.capacity_degraded_slots")};
    return probes;
  }
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& hash, double value) noexcept {
  fnv_mix(hash, std::bit_cast<std::uint64_t>(value));
}

// Stream ids for the fault RNG tree. The root stream sits far above any
// per-user endpoint stream (those are the user indices), and every family
// draws from its own child so tuning one family never shifts another's
// windows.
constexpr std::uint64_t kFaultRootStream = 0xfa170000'00000000ULL;
constexpr std::uint64_t kOutageStream = 0x0a00000000ULL;
constexpr std::uint64_t kStaleStream = 0x0b00000000ULL;
constexpr std::uint64_t kDepartureStream = 0x0c00000000ULL;
constexpr std::uint64_t kCapacityStream = 0x0d00000000ULL;

/// True when `slot` falls inside one of the sorted, non-overlapping windows.
bool hit(std::span<const FaultInterval> windows, std::int64_t slot) noexcept {
  const auto it = std::upper_bound(
      windows.begin(), windows.end(), slot,
      [](std::int64_t s, const FaultInterval& w) { return s < w.end; });
  return it != windows.end() && it->begin <= slot;
}

/// Walks the horizon starting a window with probability rate/1000 per clean
/// slot; lengths are uniform in [min_len, max_len], clamped to the horizon,
/// with at least one clean slot between consecutive windows.
template <typename Emit>
void draw_windows(Rng rng, double rate_per_kslot, std::int64_t min_len,
                  std::int64_t max_len, std::int64_t horizon, Emit&& emit) {
  if (rate_per_kslot <= 0.0) return;
  const double p_start = rate_per_kslot / 1000.0;
  std::int64_t slot = 0;
  while (slot < horizon) {
    if (rng.uniform() < p_start) {
      const std::int64_t end = std::min(horizon, slot + rng.uniform_int(min_len, max_len));
      emit(FaultInterval{slot, end});
      slot = end + 1;
    } else {
      ++slot;
    }
  }
}

void require_window_range(double rate, std::int64_t min_len, std::int64_t max_len,
                          const char* family) {
  require(std::isfinite(rate), std::string(family) + " fault rate must be finite");
  require(rate >= 0.0, std::string(family) + " fault rate must be non-negative");
  require(min_len >= 1 && min_len <= max_len,
          std::string(family) + " fault window length range is invalid");
}

}  // namespace

void validate(const FaultConfig& config) {
  require_window_range(config.outage_rate_per_kslot, config.outage_min_slots,
                       config.outage_max_slots, "outage");
  require_window_range(config.capacity_rate_per_kslot, config.capacity_min_slots,
                       config.capacity_max_slots, "capacity");
  require_window_range(config.staleness_rate_per_kslot, config.staleness_min_slots,
                       config.staleness_max_slots, "staleness");
  require(std::isfinite(config.outage_dbm), "outage fade depth must be finite");
  require(config.capacity_scale >= 0.0 && config.capacity_scale <= 1.0,
          "capacity degradation scale must be in [0, 1]");
  require(config.departure_fraction >= 0.0 && config.departure_fraction <= 1.0,
          "departure fraction must be in [0, 1]");
  require(config.departure_min_slot >= 0,
          "earliest departure slot must be non-negative");
}

std::uint64_t fault_fingerprint(const FaultConfig& config) noexcept {
  if (!config.any()) return 0;
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, config.outage_rate_per_kslot);
  fnv_mix(hash, static_cast<std::uint64_t>(config.outage_min_slots));
  fnv_mix(hash, static_cast<std::uint64_t>(config.outage_max_slots));
  fnv_mix(hash, config.outage_dbm);
  fnv_mix(hash, config.capacity_rate_per_kslot);
  fnv_mix(hash, static_cast<std::uint64_t>(config.capacity_min_slots));
  fnv_mix(hash, static_cast<std::uint64_t>(config.capacity_max_slots));
  fnv_mix(hash, config.capacity_scale);
  fnv_mix(hash, config.departure_fraction);
  fnv_mix(hash, static_cast<std::uint64_t>(config.departure_min_slot));
  fnv_mix(hash, config.staleness_rate_per_kslot);
  fnv_mix(hash, static_cast<std::uint64_t>(config.staleness_min_slots));
  fnv_mix(hash, static_cast<std::uint64_t>(config.staleness_max_slots));
  fnv_mix(hash, config.salt);
  return hash != 0 ? hash : 1;  // 0 is reserved for "faults inactive"
}

FaultSchedule::FaultSchedule(std::size_t users, std::int64_t horizon,
                             double outage_dbm, std::uint64_t seed,
                             std::uint64_t fingerprint)
    : per_user_(users),
      horizon_(horizon),
      outage_dbm_(outage_dbm),
      seed_(seed),
      fingerprint_(fingerprint) {
  require(horizon > 0, "fault schedule needs a positive horizon");
}

namespace {

void append_window(std::vector<FaultInterval>& windows, FaultInterval window,
                   std::int64_t horizon, const char* family) {
  require(window.begin >= 0 && window.begin < window.end && window.end <= horizon,
          std::string(family) + " fault window outside [0, horizon)");
  require(windows.empty() || window.begin >= windows.back().end,
          std::string(family) + " fault windows must be appended in order");
  windows.push_back(window);
}

}  // namespace

void FaultSchedule::add_outage(std::size_t user, FaultInterval burst) {
  require(user < per_user_.size(), "outage user out of range");
  append_window(per_user_[user].outages, burst, horizon_, "outage");
  active_ = true;
}

void FaultSchedule::add_stale_window(std::size_t user, FaultInterval window) {
  require(user < per_user_.size(), "staleness user out of range");
  append_window(per_user_[user].stale, window, horizon_, "staleness");
  active_ = true;
}

void FaultSchedule::add_capacity_window(FaultInterval window, double scale) {
  require(scale >= 0.0 && scale <= 1.0, "capacity window scale must be in [0, 1]");
  append_window(capacity_windows_, window, horizon_, "capacity");
  capacity_scales_.push_back(scale);
  active_ = true;
}

void FaultSchedule::set_departure(std::size_t user, std::int64_t slot) {
  require(user < per_user_.size(), "departure user out of range");
  require(slot >= 0 && slot < horizon_, "departure slot outside the horizon");
  per_user_[user].departure_slot = slot;
  active_ = true;
}

bool FaultSchedule::outaged(std::size_t user, std::int64_t slot) const noexcept {
  return user < per_user_.size() && hit(per_user_[user].outages, slot);
}

bool FaultSchedule::stale(std::size_t user, std::int64_t slot) const noexcept {
  return user < per_user_.size() && hit(per_user_[user].stale, slot);
}

std::int64_t FaultSchedule::departure_slot(std::size_t user) const noexcept {
  return user < per_user_.size() ? per_user_[user].departure_slot : kNeverDeparts;
}

double FaultSchedule::capacity_scale(std::int64_t slot) const noexcept {
  const auto it = std::upper_bound(
      capacity_windows_.begin(), capacity_windows_.end(), slot,
      [](std::int64_t s, const FaultInterval& w) { return s < w.end; });
  if (it == capacity_windows_.end() || it->begin > slot) return 1.0;
  return capacity_scales_[checked_size(it - capacity_windows_.begin())];
}

std::span<const FaultInterval> FaultSchedule::outages(std::size_t user) const {
  require(user < per_user_.size(), "outage user out of range");
  return per_user_[user].outages;
}

std::span<const FaultInterval> FaultSchedule::stale_windows(std::size_t user) const {
  require(user < per_user_.size(), "staleness user out of range");
  return per_user_[user].stale;
}

std::span<const FaultInterval> FaultSchedule::capacity_windows() const noexcept {
  return capacity_windows_;
}

std::span<const double> FaultSchedule::capacity_scales() const noexcept {
  return capacity_scales_;
}

std::int64_t FaultSchedule::total_outage_slots() const noexcept {
  std::int64_t total = 0;
  for (const PerUser& user : per_user_) {
    for (const FaultInterval& w : user.outages) total += w.end - w.begin;
  }
  return total;
}

std::int64_t FaultSchedule::total_stale_slots() const noexcept {
  std::int64_t total = 0;
  for (const PerUser& user : per_user_) {
    for (const FaultInterval& w : user.stale) total += w.end - w.begin;
  }
  return total;
}

std::size_t FaultSchedule::departures() const noexcept {
  std::size_t count = 0;
  for (const PerUser& user : per_user_) {
    if (user.departure_slot != kNeverDeparts) ++count;
  }
  return count;
}

FaultSchedule make_fault_schedule(const ScenarioConfig& config) {
  validate(config.faults);
  const FaultConfig& faults = config.faults;
  FaultSchedule schedule(config.users, config.max_slots, faults.outage_dbm, config.seed,
                         fault_fingerprint(faults));
  if (!faults.any()) return schedule;

  // Independent of the endpoint construction streams (those are
  // scenario_rng.split(i) for user indices i), so enabling faults perturbs
  // nothing about the channel, content, or arrivals.
  const Rng fault_root = Rng(config.seed).split(kFaultRootStream + faults.salt);
  for (std::size_t user = 0; user < config.users; ++user) {
    draw_windows(fault_root.split(kOutageStream + user), faults.outage_rate_per_kslot,
                 faults.outage_min_slots, faults.outage_max_slots, config.max_slots,
                 [&](FaultInterval burst) { schedule.add_outage(user, burst); });
    draw_windows(fault_root.split(kStaleStream + user), faults.staleness_rate_per_kslot,
                 faults.staleness_min_slots, faults.staleness_max_slots,
                 config.max_slots,
                 [&](FaultInterval window) { schedule.add_stale_window(user, window); });
    if (faults.departure_fraction > 0.0) {
      Rng departure_rng = fault_root.split(kDepartureStream + user);
      if (departure_rng.uniform() < faults.departure_fraction) {
        const std::int64_t earliest =
            std::min(faults.departure_min_slot, config.max_slots - 1);
        schedule.set_departure(
            user, departure_rng.uniform_int(earliest, config.max_slots - 1));
      }
    }
  }
  draw_windows(fault_root.split(kCapacityStream), faults.capacity_rate_per_kslot,
               faults.capacity_min_slots, faults.capacity_max_slots, config.max_slots,
               [&](FaultInterval window) {
                 schedule.add_capacity_window(window, faults.capacity_scale);
               });
  if (telemetry::enabled()) FaultTelemetry::instance().schedules.add();
  return schedule;
}

FaultInjector::FaultInjector(std::shared_ptr<const FaultSchedule> schedule)
    : schedule_(std::move(schedule)) {
  require(schedule_ != nullptr, "fault injector needs a schedule");
  const std::size_t users = schedule_->users();
  cursors_.reserve(users);
  for (std::size_t i = 0; i < users; ++i) {
    cursors_.push_back(UserCursors{WindowCursor{schedule_->outages(i)},
                                   WindowCursor{schedule_->stale_windows(i)}});
  }
  capacity_cursor_.windows = schedule_->capacity_windows();
  truth_.resize(users);
  last_fresh_.resize(users);
  stale_now_.assign(users, 0);
  departure_counted_.assign(users, 0);
}

void FaultInjector::degrade_context(SlotContext& ctx) {
  require(ctx.user_count() == schedule_->users(),
          "fault schedule population differs from the slot context");
  auto& probes = FaultTelemetry::instance();
  const bool telemetry_on = telemetry::enabled();
  const std::int64_t slot = ctx.slot;
  // Per-user events are summed here and added once per slot.
  std::int64_t departures = 0;
  std::int64_t outages = 0;
  std::int64_t stale = 0;

  if (slot < last_slot_) {
    for (UserCursors& user : cursors_) {
      user.outage.next = 0;
      user.stale.next = 0;
    }
    capacity_cursor_.next = 0;
  }
  last_slot_ = slot;

  // (b) Base-station degradation scales the constraint Eq. 2 bound before
  // the scheduler sees it, so every policy's decision is feasible for the
  // degraded cell by construction.
  const double scale = capacity_cursor_.covers(slot)
                           ? schedule_->capacity_scales()[capacity_cursor_.next]
                           : 1.0;
  if (scale < 1.0) {
    ctx.capacity_units = floor_to_count(as_double(ctx.capacity_units) * scale);
    if (telemetry_on) probes.capacity_degraded_slots.add();
  }

  for (std::size_t i = 0; i < ctx.user_count(); ++i) {
    UserSlotInfo& info = ctx.users[i];
    stale_now_[i] = 0;

    // (c) Departure: the session aborted — no demand, zero allocation cap, and
    // schedulers with per-user state (EMA's Eq. 16 virtual queues, RTMA's
    // rotation) see a user that simply never needs data again. The abort slot
    // itself lives on the endpoint (the Simulator stamps the schedule's drawn
    // slots into UserEndpoint::departure_slot), so fault aborts and
    // session-layer departures flow through the same collector-set flag; the
    // injector only handles the fault-local bookkeeping.
    if (info.departed) {
      last_fresh_[i].valid = false;
      if (departure_counted_[i] == 0) {
        departure_counted_[i] = 1;
        ++departures;
      }
      continue;
    }
    if (!info.arrived) continue;

    // (a) Deep fade: the physical channel truth changes — both Definition
    // 3/4 fits are re-evaluated at the fade depth (positive but collapsed
    // throughput, inflated per-KB energy), and the Eq. 1 cap shrinks with
    // them. This is not a reporting artifact, so it is never undone.
    if (cursors_[i].outage.covers(slot)) {
      info.signal_dbm = schedule_->outage_dbm();
      info.throughput_kbps = ctx.throughput->throughput_kbps(info.signal_dbm);
      info.energy_per_kb = ctx.power->energy_per_kb(info.signal_dbm);
      info.link_units = ctx.params.link_units(info.throughput_kbps);
      const std::int64_t remaining_units =
          ceil_to_count(info.remaining_kb / ctx.params.delta_kb);
      info.alloc_cap_units =
          std::max<std::int64_t>(0, std::min(info.link_units, remaining_units));
      ++outages;
    }

    // (d) Staleness: the gateway lost this slot's feedback, so the scheduler
    // is served the last fresh link report (gateway-side state — remaining
    // content, buffer, bitrate — is still the truth). The displaced truth is
    // stashed and restored in reconcile_allocation. Until a first fresh
    // report exists there is nothing stale to serve.
    if (cursors_[i].stale.covers(slot) && last_fresh_[i].valid) {
      truth_[i] = LinkSnapshot{info.signal_dbm,  info.throughput_kbps,
                               info.energy_per_kb, info.link_units,
                               info.alloc_cap_units, true};
      const LinkSnapshot& seen = last_fresh_[i];
      info.signal_dbm = seen.signal_dbm;
      info.throughput_kbps = seen.throughput_kbps;
      info.energy_per_kb = seen.energy_per_kb;
      info.link_units = seen.link_units;
      const std::int64_t remaining_units =
          ceil_to_count(info.remaining_kb / ctx.params.delta_kb);
      info.alloc_cap_units =
          std::max<std::int64_t>(0, std::min(seen.link_units, remaining_units));
      stale_now_[i] = 1;
      ++stale;
    } else {
      last_fresh_[i] = LinkSnapshot{info.signal_dbm,  info.throughput_kbps,
                                    info.energy_per_kb, info.link_units,
                                    info.alloc_cap_units, true};
      truth_[i].valid = false;
    }
  }
  if (telemetry_on) {
    if (departures > 0) probes.departures.add(departures);
    if (outages > 0) probes.outage_user_slots.add(outages);
    if (stale > 0) probes.stale_user_slots.add(stale);
  }
}

void FaultInjector::reconcile_allocation(SlotContext& ctx, Allocation& alloc) {
  require(ctx.user_count() == schedule_->users() &&
              alloc.units.size() == schedule_->users(),
          "fault schedule population differs from the allocation");
  std::int64_t clipped_units = 0;
  for (std::size_t i = 0; i < ctx.user_count(); ++i) {
    if (stale_now_[i] == 0) continue;
    stale_now_[i] = 0;
    UserSlotInfo& info = ctx.users[i];
    const LinkSnapshot& truth = truth_[i];
    info.signal_dbm = truth.signal_dbm;
    info.throughput_kbps = truth.throughput_kbps;
    info.energy_per_kb = truth.energy_per_kb;
    info.link_units = truth.link_units;
    info.alloc_cap_units = truth.alloc_cap_units;
    // The PHY cannot carry more than the true link allows: a grant made
    // against an optimistic stale report is clipped, which only ever reduces
    // the total, so constraint Eq. 2 keeps holding.
    if (alloc.units[i] > truth.alloc_cap_units) {
      clipped_units += alloc.units[i] - truth.alloc_cap_units;
      alloc.units[i] = truth.alloc_cap_units;
    }
  }
  if (clipped_units > 0 && telemetry::enabled()) {
    FaultTelemetry::instance().stale_clipped_units.add(clipped_units);
  }
}

}  // namespace jstream
