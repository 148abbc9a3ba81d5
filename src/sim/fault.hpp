// Deterministic fault injection: degraded-cell perturbations derived purely
// from the scenario configuration and seed.
//
// The paper's evaluation assumes a benign cell — everyone stays for the whole
// run and the gateway sees fresh per-slot signal reports. Production cells do
// not behave like that, so this layer injects four fault families:
//
//   (a) deep-fade outage bursts   per-user windows that override the RSSI
//                                 process with a fade-depth signal (the
//                                 Definition 3/4 fits are re-evaluated at the
//                                 depth, so throughput collapses and per-KB
//                                 energy spikes, but both stay positive);
//   (b) capacity degradation      base-station windows scaling S(n), i.e.
//                                 the constraint Eq. 2 bound;
//   (c) mid-stream departures     a user aborts its session at a drawn slot
//                                 (the complement of arrival_spread_slots)
//                                 and yields zero allocation from then on;
//   (d) feedback staleness        windows during which the scheduler is
//                                 served the user's last fresh link report;
//                                 grants are clipped back to the true link
//                                 before transmission.
//
// Determinism guarantees (see docs/ROBUSTNESS.md):
//   - the schedule is a pure function of ScenarioConfig + seed;
//   - the fault RNG streams are split off independently of the endpoint
//     construction streams, so enabling faults never perturbs video sizes,
//     bitrates, signal phases, or arrivals;
//   - each fault family draws from its own stream, so tuning one family's
//     intensity leaves the other families' windows untouched;
//   - zero intensity produces an inactive schedule and the Simulator attaches
//     no hook: outcomes are bit-identical to the unfaulted path.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "gateway/fault_hook.hpp"

namespace jstream {

struct ScenarioConfig;

/// Fault intensities for one scenario. All families default to off; a
/// default-constructed config is exactly the paper's benign cell.
struct FaultConfig {
  /// (a) Deep-fade outages: expected bursts per user per 1000 slots; each
  /// burst lasts uniform [outage_min_slots, outage_max_slots] slots during
  /// which the user's signal reads outage_dbm. The depth must stay inside the
  /// link fits' positive range (the paper's Eq. 24 fit turns non-positive
  /// below roughly -115 dBm).
  double outage_rate_per_kslot = 0.0;
  std::int64_t outage_min_slots = 5;
  std::int64_t outage_max_slots = 30;
  double outage_dbm = -112.0;

  /// (b) Capacity degradation: expected windows per 1000 slots scaling the
  /// Eq. 2 capacity by capacity_scale while they last.
  double capacity_rate_per_kslot = 0.0;
  std::int64_t capacity_min_slots = 20;
  std::int64_t capacity_max_slots = 120;
  double capacity_scale = 0.5;

  /// (c) Departures: each user aborts with this probability, at a slot drawn
  /// uniform in [departure_min_slot, horizon - 1].
  double departure_fraction = 0.0;
  std::int64_t departure_min_slot = 1;

  /// (d) Feedback staleness: expected stale windows per user per 1000 slots;
  /// lengths uniform in [staleness_min_slots, staleness_max_slots].
  double staleness_rate_per_kslot = 0.0;
  std::int64_t staleness_min_slots = 3;
  std::int64_t staleness_max_slots = 20;

  /// Mixed into the fault RNG stream: two scenarios that differ only in salt
  /// replay the same channel under different fault draws.
  std::uint64_t salt = 0;

  /// True when any family can fire; an inactive config is the identity.
  [[nodiscard]] bool any() const noexcept {
    return outage_rate_per_kslot > 0.0 || capacity_rate_per_kslot > 0.0 ||
           departure_fraction > 0.0 || staleness_rate_per_kslot > 0.0;
  }
};

/// Validates ranges; throws jstream::Error with a description.
void validate(const FaultConfig& config);

/// FNV-1a over every FaultConfig field, 0 when the config is inactive. Part
/// of the TraceKey, so a faulted campaign can never alias an unfaulted cache
/// entry (or another fault config's) even though the channel matrices match.
[[nodiscard]] std::uint64_t fault_fingerprint(const FaultConfig& config) noexcept;

/// Half-open slot window [begin, end).
struct FaultInterval {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  [[nodiscard]] bool contains(std::int64_t slot) const noexcept {
    return slot >= begin && slot < end;
  }
  [[nodiscard]] bool operator==(const FaultInterval&) const noexcept = default;
};

/// The materialized fault plan for one run: per-user outage and staleness
/// windows, per-user departure slots, and base-station capacity windows.
/// Random-access queries are O(log windows) and allocation-free; they are
/// the reference FaultInjector's cursor walk is tested against. Windows are
/// appended in increasing, non-overlapping order (enforced).
class FaultSchedule {
 public:
  static constexpr std::int64_t kNeverDeparts =
      std::numeric_limits<std::int64_t>::max();

  FaultSchedule() = default;
  /// `seed` and `fingerprint` record what the schedule was drawn for
  /// (make_fault_schedule passes the scenario seed and fault_fingerprint of
  /// its FaultConfig); a hand-built schedule leaves both 0.
  FaultSchedule(std::size_t users, std::int64_t horizon, double outage_dbm,
                std::uint64_t seed = 0, std::uint64_t fingerprint = 0);

  /// Appends one window per call; begins must strictly increase past the
  /// previous window's end. Windows are clamped to the horizon by the caller.
  void add_outage(std::size_t user, FaultInterval burst);
  void add_stale_window(std::size_t user, FaultInterval window);
  void add_capacity_window(FaultInterval window, double scale);
  void set_departure(std::size_t user, std::int64_t slot);

  [[nodiscard]] std::size_t users() const noexcept { return per_user_.size(); }
  [[nodiscard]] std::int64_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] double outage_dbm() const noexcept { return outage_dbm_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// True when the schedule contains at least one window or departure.
  [[nodiscard]] bool active() const noexcept { return active_; }

  [[nodiscard]] bool outaged(std::size_t user, std::int64_t slot) const noexcept;
  [[nodiscard]] bool stale(std::size_t user, std::int64_t slot) const noexcept;
  [[nodiscard]] std::int64_t departure_slot(std::size_t user) const noexcept;
  [[nodiscard]] bool departed(std::size_t user, std::int64_t slot) const noexcept {
    return slot >= departure_slot(user);
  }
  /// Eq. 2 multiplier for this slot; 1.0 outside every window.
  [[nodiscard]] double capacity_scale(std::int64_t slot) const noexcept;

  /// Introspection for tests and the fault sweep bench.
  [[nodiscard]] std::span<const FaultInterval> outages(std::size_t user) const;
  [[nodiscard]] std::span<const FaultInterval> stale_windows(std::size_t user) const;
  [[nodiscard]] std::span<const FaultInterval> capacity_windows() const noexcept;
  /// Eq. 2 multiplier of each capacity window, parallel to capacity_windows().
  [[nodiscard]] std::span<const double> capacity_scales() const noexcept;
  [[nodiscard]] std::int64_t total_outage_slots() const noexcept;
  [[nodiscard]] std::int64_t total_stale_slots() const noexcept;
  [[nodiscard]] std::size_t departures() const noexcept;

 private:
  struct PerUser {
    std::vector<FaultInterval> outages;
    std::vector<FaultInterval> stale;
    std::int64_t departure_slot = kNeverDeparts;
  };

  std::vector<PerUser> per_user_;
  std::vector<FaultInterval> capacity_windows_;
  std::vector<double> capacity_scales_;  ///< parallel to capacity_windows_
  std::int64_t horizon_ = 0;
  double outage_dbm_ = -112.0;
  std::uint64_t seed_ = 0;
  std::uint64_t fingerprint_ = 0;
  bool active_ = false;
};

/// Generates the schedule for a scenario: a pure function of the config (the
/// fault RNG is split from config.seed on streams disjoint from the per-user
/// endpoint streams). An inactive config yields an inactive schedule without
/// consuming any random draws. The schedule records config.seed and
/// fault_fingerprint(config.faults), so a Simulator handed a shared schedule
/// can check that it was drawn for its own scenario.
[[nodiscard]] FaultSchedule make_fault_schedule(const ScenarioConfig& config);

/// SlotFaultHook implementation applying a FaultSchedule to the slot path.
/// All workspaces are sized at construction; degrade/reconcile perform zero
/// heap allocations (pinned by tests/perf/test_zero_alloc_slot.cpp).
///
/// Window lookups walk forward cursors, one per user and family plus one for
/// capacity, so a slot costs O(1) per user instead of two binary searches.
/// A slot earlier than the previous one rewinds every cursor, so any slot
/// sequence answers exactly as the schedule's random-access queries do.
class FaultInjector final : public SlotFaultHook {
 public:
  explicit FaultInjector(std::shared_ptr<const FaultSchedule> schedule);

  void degrade_context(SlotContext& ctx) override;
  void reconcile_allocation(SlotContext& ctx, Allocation& alloc) override;

  [[nodiscard]] const FaultSchedule& schedule() const noexcept { return *schedule_; }

 private:
  /// Link fields as the collector reported them, cached either as the ground
  /// truth displaced by a stale view (truth_) or as the freshest report to
  /// serve during the next stale window (last_fresh_).
  struct LinkSnapshot {
    double signal_dbm = 0.0;
    double throughput_kbps = 0.0;
    double energy_per_kb = 0.0;
    std::int64_t link_units = 0;
    std::int64_t alloc_cap_units = 0;
    bool valid = false;
  };

  /// The first window of `windows` that ends after the last slot looked up;
  /// slots must not decrease between rewinds.
  struct WindowCursor {
    std::span<const FaultInterval> windows;
    std::size_t next = 0;

    [[nodiscard]] bool covers(std::int64_t slot) noexcept {
      while (next < windows.size() && windows[next].end <= slot) ++next;
      return next < windows.size() && windows[next].begin <= slot;
    }
  };

  struct UserCursors {
    WindowCursor outage;
    WindowCursor stale;
  };

  std::shared_ptr<const FaultSchedule> schedule_;
  std::vector<UserCursors> cursors_;
  WindowCursor capacity_cursor_;
  std::int64_t last_slot_ = std::numeric_limits<std::int64_t>::min();
  std::vector<LinkSnapshot> truth_;
  std::vector<LinkSnapshot> last_fresh_;
  std::vector<unsigned char> stale_now_;
  std::vector<unsigned char> departure_counted_;
};

}  // namespace jstream
