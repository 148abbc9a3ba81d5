// Fault layer unit tests: schedule generation is a pure function of the
// scenario (per-family stream independence included), the window containers
// enforce their ordering contract, and the FaultInjector rewrites slot
// contexts exactly as documented — permanent deep-fade truth, capacity
// scaling, departure zeroing, and the stale-view/reconcile round trip — with
// its window cursors answering exactly as the schedule's searches do.

#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/allocation.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::make_context;

ScenarioConfig faulted_scenario(std::uint64_t seed = 11) {
  ScenarioConfig config = paper_scenario(/*users=*/4, seed);
  config.max_slots = 600;
  config.faults.outage_rate_per_kslot = 8.0;
  config.faults.staleness_rate_per_kslot = 12.0;
  config.faults.departure_fraction = 0.5;
  config.faults.capacity_rate_per_kslot = 4.0;
  return config;
}

std::vector<FaultInterval> to_vector(std::span<const FaultInterval> span) {
  return {span.begin(), span.end()};
}

void expect_same_schedule(const FaultSchedule& a, const FaultSchedule& b) {
  ASSERT_EQ(a.users(), b.users());
  EXPECT_EQ(a.horizon(), b.horizon());
  for (std::size_t user = 0; user < a.users(); ++user) {
    EXPECT_EQ(to_vector(a.outages(user)), to_vector(b.outages(user))) << user;
    EXPECT_EQ(to_vector(a.stale_windows(user)), to_vector(b.stale_windows(user)))
        << user;
    EXPECT_EQ(a.departure_slot(user), b.departure_slot(user)) << user;
  }
  EXPECT_EQ(to_vector(a.capacity_windows()), to_vector(b.capacity_windows()));
  for (const FaultInterval& window : a.capacity_windows()) {
    EXPECT_EQ(a.capacity_scale(window.begin), b.capacity_scale(window.begin));
  }
}

TEST(FaultConfig, DefaultIsInactive) {
  const FaultConfig config;
  EXPECT_FALSE(config.any());
  EXPECT_NO_THROW(validate(config));
  EXPECT_EQ(fault_fingerprint(config), 0u);
}

TEST(FaultConfig, EachFamilyActivates) {
  FaultConfig config;
  config.outage_rate_per_kslot = 1.0;
  EXPECT_TRUE(config.any());
  config = {};
  config.capacity_rate_per_kslot = 1.0;
  EXPECT_TRUE(config.any());
  config = {};
  config.departure_fraction = 0.1;
  EXPECT_TRUE(config.any());
  config = {};
  config.staleness_rate_per_kslot = 1.0;
  EXPECT_TRUE(config.any());
}

TEST(FaultConfig, ValidateRejectsBadRanges) {
  FaultConfig config;
  config.outage_rate_per_kslot = -1.0;
  EXPECT_THROW(validate(config), Error);

  config = {};
  config.outage_min_slots = 10;
  config.outage_max_slots = 5;
  EXPECT_THROW(validate(config), Error);

  config = {};
  config.staleness_min_slots = 0;
  EXPECT_THROW(validate(config), Error);

  config = {};
  config.capacity_scale = 1.5;
  EXPECT_THROW(validate(config), Error);

  config = {};
  config.departure_fraction = -0.1;
  EXPECT_THROW(validate(config), Error);

  config = {};
  config.departure_min_slot = -1;
  EXPECT_THROW(validate(config), Error);

  config = {};
  config.outage_dbm = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate(config), Error);
}

TEST(FaultConfig, ValidateRejectsNonFiniteRatesByName) {
  struct Field {
    double FaultConfig::*member;
    const char* message;
  };
  const Field fields[] = {
      {&FaultConfig::outage_rate_per_kslot, "outage fault rate must be finite"},
      {&FaultConfig::capacity_rate_per_kslot, "capacity fault rate must be finite"},
      {&FaultConfig::staleness_rate_per_kslot, "staleness fault rate must be finite"}};
  for (const Field& field : fields) {
    for (const double bad : testing::kNonFinite) {
      FaultConfig config;
      config.*field.member = bad;
      const std::string error = testing::error_message([&] { validate(config); });
      EXPECT_NE(error.find(field.message), std::string::npos)
          << field.message << ", value " << bad << ": got \"" << error << "\"";
    }
  }
}

TEST(FaultFingerprint, ActiveConfigsAreNonZeroAndDistinct) {
  FaultConfig a;
  a.outage_rate_per_kslot = 2.0;
  FaultConfig b = a;
  EXPECT_NE(fault_fingerprint(a), 0u);
  EXPECT_EQ(fault_fingerprint(a), fault_fingerprint(b));

  b.outage_rate_per_kslot = 3.0;
  EXPECT_NE(fault_fingerprint(a), fault_fingerprint(b));

  b = a;
  b.salt = 1;
  EXPECT_NE(fault_fingerprint(a), fault_fingerprint(b));

  b = a;
  b.capacity_rate_per_kslot = 1.0;
  EXPECT_NE(fault_fingerprint(a), fault_fingerprint(b));
}

TEST(FaultScheduleGeneration, PureFunctionOfTheScenario) {
  const FaultSchedule a = make_fault_schedule(faulted_scenario());
  const FaultSchedule b = make_fault_schedule(faulted_scenario());
  EXPECT_TRUE(a.active());
  expect_same_schedule(a, b);
}

TEST(FaultScheduleGeneration, SeedAndSaltChangeTheDraws) {
  const FaultSchedule base = make_fault_schedule(faulted_scenario(11));
  const FaultSchedule reseeded = make_fault_schedule(faulted_scenario(12));
  ScenarioConfig salted = faulted_scenario(11);
  salted.faults.salt = 7;
  const FaultSchedule resalted = make_fault_schedule(salted);

  // With these rates a ~600-slot horizon draws dozens of windows; identical
  // draws under a different seed (or salt) would be astronomically unlikely.
  auto total_slots = [](const FaultSchedule& s) {
    return s.total_outage_slots() + s.total_stale_slots();
  };
  EXPECT_GT(total_slots(base), 0);
  EXPECT_NE(to_vector(base.outages(0)), to_vector(reseeded.outages(0)));
  EXPECT_NE(to_vector(base.outages(0)), to_vector(resalted.outages(0)));
}

TEST(FaultScheduleGeneration, ZeroIntensityIsInactive) {
  ScenarioConfig config = faulted_scenario();
  config.faults = FaultConfig{};
  const FaultSchedule schedule = make_fault_schedule(config);
  EXPECT_FALSE(schedule.active());
  EXPECT_EQ(schedule.total_outage_slots(), 0);
  EXPECT_EQ(schedule.total_stale_slots(), 0);
  EXPECT_EQ(schedule.departures(), 0u);
  EXPECT_TRUE(schedule.capacity_windows().empty());
}

TEST(FaultScheduleGeneration, FamiliesDrawFromIndependentStreams) {
  // Turning a second family on (or retuning it) must not move the first
  // family's windows: each family draws from its own split stream.
  ScenarioConfig outage_only = faulted_scenario();
  outage_only.faults = FaultConfig{};
  outage_only.faults.outage_rate_per_kslot = 8.0;
  ScenarioConfig all_on = faulted_scenario();

  const FaultSchedule lone = make_fault_schedule(outage_only);
  const FaultSchedule mixed = make_fault_schedule(all_on);
  for (std::size_t user = 0; user < lone.users(); ++user) {
    EXPECT_EQ(to_vector(lone.outages(user)), to_vector(mixed.outages(user))) << user;
  }

  ScenarioConfig retuned = all_on;
  retuned.faults.staleness_rate_per_kslot = 25.0;
  const FaultSchedule shifted = make_fault_schedule(retuned);
  for (std::size_t user = 0; user < mixed.users(); ++user) {
    EXPECT_EQ(to_vector(mixed.outages(user)), to_vector(shifted.outages(user)));
    EXPECT_EQ(mixed.departure_slot(user), shifted.departure_slot(user));
  }
  EXPECT_EQ(to_vector(mixed.capacity_windows()),
            to_vector(shifted.capacity_windows()));
}

TEST(FaultScheduleGeneration, WindowsAreSortedDisjointAndInHorizon) {
  const ScenarioConfig config = faulted_scenario();
  const FaultSchedule schedule = make_fault_schedule(config);
  auto check_windows = [&](std::span<const FaultInterval> windows) {
    std::int64_t prev_end = 0;
    for (const FaultInterval& w : windows) {
      EXPECT_GE(w.begin, prev_end);
      EXPECT_LT(w.begin, w.end);
      EXPECT_LE(w.end, config.max_slots);
      prev_end = w.end;
    }
  };
  for (std::size_t user = 0; user < schedule.users(); ++user) {
    check_windows(schedule.outages(user));
    check_windows(schedule.stale_windows(user));
    const std::int64_t departure = schedule.departure_slot(user);
    if (departure != FaultSchedule::kNeverDeparts) {
      EXPECT_GE(departure, 0);
      EXPECT_LT(departure, config.max_slots);
    }
  }
  check_windows(schedule.capacity_windows());
}

TEST(FaultSchedule, QueriesMatchHandBuiltWindows) {
  FaultSchedule schedule(/*users=*/2, /*horizon=*/20, /*outage_dbm=*/-112.0);
  EXPECT_FALSE(schedule.active());
  schedule.add_outage(0, {2, 5});
  schedule.add_outage(0, {8, 10});
  schedule.add_stale_window(1, {4, 7});
  schedule.add_capacity_window({6, 9}, 0.25);
  schedule.set_departure(1, 12);
  EXPECT_TRUE(schedule.active());

  EXPECT_FALSE(schedule.outaged(0, 1));
  EXPECT_TRUE(schedule.outaged(0, 2));
  EXPECT_TRUE(schedule.outaged(0, 4));
  EXPECT_FALSE(schedule.outaged(0, 5));  // half-open
  EXPECT_TRUE(schedule.outaged(0, 9));
  EXPECT_FALSE(schedule.outaged(1, 3));

  EXPECT_TRUE(schedule.stale(1, 4));
  EXPECT_FALSE(schedule.stale(1, 7));
  EXPECT_FALSE(schedule.stale(0, 4));

  EXPECT_DOUBLE_EQ(schedule.capacity_scale(5), 1.0);
  EXPECT_DOUBLE_EQ(schedule.capacity_scale(6), 0.25);
  EXPECT_DOUBLE_EQ(schedule.capacity_scale(8), 0.25);
  EXPECT_DOUBLE_EQ(schedule.capacity_scale(9), 1.0);

  EXPECT_FALSE(schedule.departed(1, 11));
  EXPECT_TRUE(schedule.departed(1, 12));
  EXPECT_EQ(schedule.departure_slot(0), FaultSchedule::kNeverDeparts);
  EXPECT_EQ(schedule.total_outage_slots(), 5);
  EXPECT_EQ(schedule.total_stale_slots(), 3);
  EXPECT_EQ(schedule.departures(), 1u);
}

TEST(FaultSchedule, MutatorsEnforceTheContract) {
  EXPECT_THROW(FaultSchedule(1, 0, -112.0), Error);
  FaultSchedule schedule(/*users=*/1, /*horizon=*/10, /*outage_dbm=*/-112.0);
  schedule.add_outage(0, {2, 5});
  EXPECT_THROW(schedule.add_outage(0, {4, 6}), Error);   // overlap
  EXPECT_THROW(schedule.add_outage(0, {0, 1}), Error);   // out of order
  EXPECT_THROW(schedule.add_outage(0, {5, 11}), Error);  // past horizon
  EXPECT_THROW(schedule.add_outage(0, {5, 5}), Error);   // empty
  EXPECT_THROW(schedule.add_outage(1, {5, 6}), Error);   // user range
  EXPECT_THROW(schedule.set_departure(0, 10), Error);    // past horizon
  EXPECT_THROW(schedule.add_capacity_window({0, 2}, 1.5), Error);
}

// ---------------------------------------------------------------------------
// FaultInjector: synthetic one-user contexts make each rewrite observable.

std::shared_ptr<const FaultSchedule> share(FaultSchedule schedule) {
  return std::make_shared<const FaultSchedule>(std::move(schedule));
}

TEST(FaultInjector, OutageRewritesTheLinkTruth) {
  FaultSchedule schedule(/*users=*/1, /*horizon=*/10, /*outage_dbm=*/-112.0);
  schedule.add_outage(0, {3, 6});
  FaultInjector injector(share(std::move(schedule)));

  SlotContext clean = make_context({TestUser{}}, 20000.0, SlotParams{}, /*slot=*/2);
  const UserSlotInfo before = clean.users[0];
  injector.degrade_context(clean);
  EXPECT_DOUBLE_EQ(clean.users[0].signal_dbm, before.signal_dbm);
  EXPECT_EQ(clean.users[0].alloc_cap_units, before.alloc_cap_units);

  SlotContext faded = make_context({TestUser{}}, 20000.0, SlotParams{}, /*slot=*/4);
  injector.degrade_context(faded);
  const UserSlotInfo& info = faded.users[0];
  EXPECT_DOUBLE_EQ(info.signal_dbm, -112.0);
  EXPECT_DOUBLE_EQ(info.throughput_kbps, faded.throughput->throughput_kbps(-112.0));
  EXPECT_DOUBLE_EQ(info.energy_per_kb, faded.power->energy_per_kb(-112.0));
  EXPECT_GT(info.throughput_kbps, 0.0);  // depth stays inside the fits
  EXPECT_EQ(info.link_units, faded.params.link_units(info.throughput_kbps));
  EXPECT_LT(info.alloc_cap_units, before.alloc_cap_units);
  EXPECT_GT(info.energy_per_kb, before.energy_per_kb);
}

TEST(FaultInjector, CapacityWindowScalesTheSlotBound) {
  FaultSchedule schedule(/*users=*/1, /*horizon=*/10, /*outage_dbm=*/-112.0);
  schedule.add_capacity_window({0, 4}, 0.5);
  FaultInjector injector(share(std::move(schedule)));

  SlotContext degraded = make_context({TestUser{}}, 20000.0, SlotParams{}, 1);
  const std::int64_t full = degraded.capacity_units;
  injector.degrade_context(degraded);
  EXPECT_EQ(degraded.capacity_units, full / 2);

  SlotContext restored = make_context({TestUser{}}, 20000.0, SlotParams{}, 6);
  injector.degrade_context(restored);
  EXPECT_EQ(restored.capacity_units, full);
}

TEST(FaultInjector, DepartureZeroesTheUserForGood) {
  // Departures ride the shared session path: the abort slot is stamped on the
  // endpoint (as the Simulator does from the schedule), the collector derives
  // the departed flag and zeroes demand, and the injector leaves the flag
  // alone while doing its own bookkeeping.
  FaultSchedule schedule(/*users=*/2, /*horizon=*/10, /*outage_dbm=*/-112.0);
  schedule.set_departure(0, 5);
  FaultInjector injector(share(std::move(schedule)));

  std::vector<UserEndpoint> endpoints = testing::make_endpoints({-80.0, -80.0});
  endpoints[0].depart_at(injector.schedule().departure_slot(0));
  const InfoCollector collector = testing::make_collector();
  const BaseStation bs(20000.0);

  SlotContext before = collector.collect(4, endpoints, bs);
  injector.degrade_context(before);
  EXPECT_FALSE(before.users[0].departed);
  EXPECT_TRUE(before.users[0].needs_data);

  for (std::int64_t slot = 5; slot < 10; ++slot) {
    SlotContext after = collector.collect(slot, endpoints, bs);
    injector.degrade_context(after);
    EXPECT_TRUE(after.users[0].departed) << slot;
    EXPECT_FALSE(after.users[0].needs_data) << slot;
    EXPECT_EQ(after.users[0].alloc_cap_units, 0) << slot;
    // The neighbour is untouched.
    EXPECT_FALSE(after.users[1].departed) << slot;
    EXPECT_GT(after.users[1].alloc_cap_units, 0) << slot;
  }
}

TEST(FaultInjector, StaleWindowServesTheLastFreshReportThenReconciles) {
  FaultSchedule schedule(/*users=*/1, /*horizon=*/10, /*outage_dbm=*/-112.0);
  schedule.add_stale_window(0, {1, 3});
  FaultInjector injector(share(std::move(schedule)));

  // Slot 0: fresh report at a strong signal.
  TestUser strong;
  strong.signal_dbm = -65.0;
  SlotContext fresh = make_context({strong}, 20000.0, SlotParams{}, 0);
  injector.degrade_context(fresh);
  EXPECT_DOUBLE_EQ(fresh.users[0].signal_dbm, -65.0);
  const std::int64_t strong_cap = fresh.users[0].alloc_cap_units;

  // Slot 1: the channel truly collapsed, but the scheduler is served the
  // stale strong view.
  TestUser weak;
  weak.signal_dbm = -105.0;
  SlotContext stale = make_context({weak}, 20000.0, SlotParams{}, 1);
  const UserSlotInfo truth = stale.users[0];
  injector.degrade_context(stale);
  EXPECT_DOUBLE_EQ(stale.users[0].signal_dbm, -65.0);
  EXPECT_DOUBLE_EQ(stale.users[0].throughput_kbps,
                   stale.throughput->throughput_kbps(-65.0));
  EXPECT_EQ(stale.users[0].alloc_cap_units, strong_cap);
  EXPECT_GT(strong_cap, truth.alloc_cap_units);  // the view is optimistic

  // The scheduler grants against the optimistic view; reconcile restores the
  // truth and clips the grant to the true link cap (Eq. 2 only shrinks).
  Allocation alloc = Allocation::zeros(1);
  alloc.units[0] = strong_cap;
  injector.reconcile_allocation(stale, alloc);
  EXPECT_DOUBLE_EQ(stale.users[0].signal_dbm, truth.signal_dbm);
  EXPECT_DOUBLE_EQ(stale.users[0].throughput_kbps, truth.throughput_kbps);
  EXPECT_DOUBLE_EQ(stale.users[0].energy_per_kb, truth.energy_per_kb);
  EXPECT_EQ(stale.users[0].link_units, truth.link_units);
  EXPECT_EQ(stale.users[0].alloc_cap_units, truth.alloc_cap_units);
  EXPECT_EQ(alloc.units[0], truth.alloc_cap_units);
}

TEST(FaultInjector, StaleWindowBeforeAnyFreshReportIsServedTheTruth) {
  FaultSchedule schedule(/*users=*/1, /*horizon=*/10, /*outage_dbm=*/-112.0);
  schedule.add_stale_window(0, {0, 2});
  FaultInjector injector(share(std::move(schedule)));

  SlotContext first = make_context({TestUser{}}, 20000.0, SlotParams{}, 0);
  const UserSlotInfo truth = first.users[0];
  injector.degrade_context(first);
  // No fresh report exists yet, so there is nothing stale to serve.
  EXPECT_DOUBLE_EQ(first.users[0].signal_dbm, truth.signal_dbm);
  EXPECT_EQ(first.users[0].alloc_cap_units, truth.alloc_cap_units);

  Allocation alloc = Allocation::zeros(1);
  alloc.units[0] = truth.alloc_cap_units;
  injector.reconcile_allocation(first, alloc);
  EXPECT_EQ(alloc.units[0], truth.alloc_cap_units);  // nothing to clip
}

TEST(FaultInjector, PessimisticStaleViewIsNotInflated) {
  // Stale view weaker than the truth: the grant already fits the true link,
  // so reconcile restores the truth but leaves the grant alone.
  FaultSchedule schedule(/*users=*/1, /*horizon=*/10, /*outage_dbm=*/-112.0);
  schedule.add_stale_window(0, {1, 2});
  FaultInjector injector(share(std::move(schedule)));

  TestUser weak;
  weak.signal_dbm = -105.0;
  SlotContext fresh = make_context({weak}, 20000.0, SlotParams{}, 0);
  injector.degrade_context(fresh);
  const std::int64_t weak_cap = fresh.users[0].alloc_cap_units;

  TestUser strong;
  strong.signal_dbm = -65.0;
  SlotContext stale = make_context({strong}, 20000.0, SlotParams{}, 1);
  const std::int64_t true_cap = stale.users[0].alloc_cap_units;
  injector.degrade_context(stale);
  EXPECT_EQ(stale.users[0].alloc_cap_units, weak_cap);

  Allocation alloc = Allocation::zeros(1);
  alloc.units[0] = weak_cap;
  injector.reconcile_allocation(stale, alloc);
  EXPECT_EQ(stale.users[0].alloc_cap_units, true_cap);
  EXPECT_EQ(alloc.units[0], weak_cap);  // under the true cap: kept
}

// ---------------------------------------------------------------------------
// Cursor equivalence: the injector walks its windows with cursors; a
// reference that answers every lookup with FaultSchedule's random-access
// searches must rewrite every context and allocation identically.

/// FaultInjector's documented rewrite, with outaged / stale / capacity_scale
/// answering every window lookup.
class SearchInjector {
 public:
  explicit SearchInjector(const FaultSchedule& schedule)
      : schedule_(schedule),
        truth_(schedule.users()),
        last_fresh_(schedule.users()),
        stale_now_(schedule.users(), false) {}

  void degrade_context(SlotContext& ctx) {
    const double scale = schedule_.capacity_scale(ctx.slot);
    if (scale < 1.0) {
      ctx.capacity_units = floor_to_count(as_double(ctx.capacity_units) * scale);
    }
    for (std::size_t i = 0; i < ctx.user_count(); ++i) {
      UserSlotInfo& info = ctx.users[i];
      stale_now_[i] = false;
      if (info.departed) {
        last_fresh_[i].reset();
        continue;
      }
      if (!info.arrived) continue;
      if (schedule_.outaged(i, ctx.slot)) {
        info.signal_dbm = schedule_.outage_dbm();
        info.throughput_kbps = ctx.throughput->throughput_kbps(info.signal_dbm);
        info.energy_per_kb = ctx.power->energy_per_kb(info.signal_dbm);
        info.link_units = ctx.params.link_units(info.throughput_kbps);
        info.alloc_cap_units = capped(ctx, info, info.link_units);
      }
      if (schedule_.stale(i, ctx.slot) && last_fresh_[i].has_value()) {
        truth_[i] = info;
        const UserSlotInfo& seen = *last_fresh_[i];
        info.signal_dbm = seen.signal_dbm;
        info.throughput_kbps = seen.throughput_kbps;
        info.energy_per_kb = seen.energy_per_kb;
        info.link_units = seen.link_units;
        info.alloc_cap_units = capped(ctx, info, seen.link_units);
        stale_now_[i] = true;
      } else {
        last_fresh_[i] = info;
      }
    }
  }

  void reconcile_allocation(SlotContext& ctx, Allocation& alloc) {
    for (std::size_t i = 0; i < ctx.user_count(); ++i) {
      if (!stale_now_[i]) continue;
      stale_now_[i] = false;
      UserSlotInfo& info = ctx.users[i];
      info.signal_dbm = truth_[i].signal_dbm;
      info.throughput_kbps = truth_[i].throughput_kbps;
      info.energy_per_kb = truth_[i].energy_per_kb;
      info.link_units = truth_[i].link_units;
      info.alloc_cap_units = truth_[i].alloc_cap_units;
      alloc.units[i] = std::min(alloc.units[i], truth_[i].alloc_cap_units);
    }
  }

 private:
  static std::int64_t capped(const SlotContext& ctx, const UserSlotInfo& info,
                             std::int64_t link_units) {
    const std::int64_t remaining = ceil_to_count(info.remaining_kb / ctx.params.delta_kb);
    return std::max<std::int64_t>(0, std::min(link_units, remaining));
  }

  const FaultSchedule& schedule_;
  std::vector<UserSlotInfo> truth_;
  std::vector<std::optional<UserSlotInfo>> last_fresh_;
  std::vector<bool> stale_now_;
};

/// Windows over [0, horizon): none at all for about one user in four;
/// otherwise starting at slot 0 half the time, with gaps of 0 (windows that
/// touch) to 3 slots, and the last window often clamped to end at the
/// horizon.
template <typename Add>
void add_random_windows(Rng& rng, std::int64_t horizon, Add&& add) {
  if (rng.uniform() < 0.25) return;
  std::int64_t slot = rng.uniform() < 0.5 ? 0 : rng.uniform_int(1, 4);
  while (slot < horizon) {
    const std::int64_t end = std::min(horizon, slot + rng.uniform_int(1, 6));
    add(FaultInterval{slot, end});
    slot = end + rng.uniform_int(0, 3);
  }
}

FaultSchedule random_schedule(Rng& rng, std::size_t users, std::int64_t horizon) {
  FaultSchedule schedule(users, horizon, /*outage_dbm=*/-112.0);
  for (std::size_t user = 0; user < users; ++user) {
    add_random_windows(rng, horizon, [&](FaultInterval w) { schedule.add_outage(user, w); });
    add_random_windows(rng, horizon,
                       [&](FaultInterval w) { schedule.add_stale_window(user, w); });
  }
  add_random_windows(rng, horizon, [&](FaultInterval w) {
    schedule.add_capacity_window(w, rng.uniform(0.1, 1.0));
  });
  return schedule;
}

/// Mostly the next slot, with repeats, backward jumps (one slot, or to any
/// earlier slot) and forward skips, all inside [0, horizon).
std::vector<std::int64_t> random_slot_walk(Rng& rng, std::int64_t horizon,
                                           std::size_t steps) {
  std::vector<std::int64_t> walk;
  std::int64_t slot = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    walk.push_back(slot);
    const double move = rng.uniform();
    if (move < 0.6) {
      slot += 1;
    } else if (move < 0.7) {
      // repeat the slot
    } else if (move < 0.8) {
      slot -= 1;
    } else if (move < 0.9) {
      slot = rng.uniform_int(0, slot);
    } else {
      slot += rng.uniform_int(2, 8);
    }
    slot = std::clamp<std::int64_t>(slot, 0, horizon - 1);
  }
  return walk;
}

/// A synthetic slot at `slot`: random link truth per user, some users with
/// little content left (so the remaining-content cap binds), departed or not
/// yet arrived.
SlotContext random_context(Rng& rng, std::size_t users, std::int64_t slot) {
  std::vector<TestUser> population(users);
  for (TestUser& user : population) {
    user.signal_dbm = rng.uniform(-108.0, -55.0);
    user.remaining_kb = rng.uniform() < 0.2 ? rng.uniform(1.0, 400.0) : 1e6;
  }
  SlotContext ctx = make_context(population, rng.uniform(500.0, 20000.0), SlotParams{}, slot);
  for (UserSlotInfo& info : ctx.users) {
    const double state = rng.uniform();
    if (state < 0.08) {
      info.departed = true;
      info.needs_data = false;
      info.alloc_cap_units = 0;
    } else if (state < 0.14) {
      info.arrived = false;
    }
  }
  return ctx;
}

void expect_same_context(const SlotContext& got, const SlotContext& want,
                         const std::string& where) {
  EXPECT_EQ(got.capacity_units, want.capacity_units) << where;
  ASSERT_EQ(got.user_count(), want.user_count()) << where;
  for (std::size_t i = 0; i < got.user_count(); ++i) {
    const UserSlotInfo& a = got.users[i];
    const UserSlotInfo& b = want.users[i];
    EXPECT_EQ(a.signal_dbm, b.signal_dbm) << where << " user " << i;
    EXPECT_EQ(a.throughput_kbps, b.throughput_kbps) << where << " user " << i;
    EXPECT_EQ(a.energy_per_kb, b.energy_per_kb) << where << " user " << i;
    EXPECT_EQ(a.link_units, b.link_units) << where << " user " << i;
    EXPECT_EQ(a.alloc_cap_units, b.alloc_cap_units) << where << " user " << i;
  }
}

TEST(FaultInjector, CursorsAnswerExactlyAsTheScheduleSearches) {
  Rng root(0x5eed);
  std::size_t checked_slots = 0;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng = root.split(trial);
    const std::size_t users = checked_size(rng.uniform_int(1, 6));
    const std::int64_t horizon = rng.uniform_int(1, 40);
    const auto schedule = share(random_schedule(rng, users, horizon));
    FaultInjector injector(schedule);
    SearchInjector reference(*schedule);

    for (const std::int64_t slot : random_slot_walk(rng, horizon, 120)) {
      const std::string where =
          "trial " + std::to_string(trial) + " slot " + std::to_string(slot);
      SlotContext ctx = random_context(rng, users, slot);
      SlotContext want = ctx;
      injector.degrade_context(ctx);
      reference.degrade_context(want);
      expect_same_context(ctx, want, where + " (degrade)");

      Allocation alloc = Allocation::zeros(users);
      for (std::size_t i = 0; i < users; ++i) {
        alloc.units[i] = rng.uniform_int(0, ctx.users[i].alloc_cap_units + 3);
      }
      Allocation want_alloc = alloc;
      injector.reconcile_allocation(ctx, alloc);
      reference.reconcile_allocation(want, want_alloc);
      expect_same_context(ctx, want, where + " (reconcile)");
      EXPECT_EQ(alloc.units, want_alloc.units) << where;
      ++checked_slots;
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_EQ(checked_slots, 200u * 120u);
}

TEST(FaultInjector, CursorsFollowADrawnScheduleThroughAWholeRun) {
  // A drawn schedule walked slot by slot over its horizon and then again
  // from slot 0 (a rewind), against the same searches.
  const ScenarioConfig config = faulted_scenario(23);
  const auto schedule = share(make_fault_schedule(config));
  FaultInjector injector(schedule);
  SearchInjector reference(*schedule);
  Rng rng(99);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::int64_t slot = 0; slot < config.max_slots; ++slot) {
      SlotContext ctx = random_context(rng, config.users, slot);
      SlotContext want = ctx;
      injector.degrade_context(ctx);
      reference.degrade_context(want);
      expect_same_context(ctx, want, "slot " + std::to_string(slot));
      Allocation alloc = Allocation::zeros(config.users);
      for (std::size_t i = 0; i < config.users; ++i) {
        alloc.units[i] = ctx.users[i].alloc_cap_units;
      }
      Allocation want_alloc = alloc;
      injector.reconcile_allocation(ctx, alloc);
      reference.reconcile_allocation(want, want_alloc);
      EXPECT_EQ(alloc.units, want_alloc.units) << "slot " << slot;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(FaultSchedule, RecordsWhatItWasDrawnFor) {
  const ScenarioConfig config = faulted_scenario(31);
  const FaultSchedule drawn = make_fault_schedule(config);
  EXPECT_EQ(drawn.seed(), 31u);
  EXPECT_EQ(drawn.fingerprint(), fault_fingerprint(config.faults));
  EXPECT_EQ(drawn.capacity_scales().size(), drawn.capacity_windows().size());

  const FaultSchedule hand_built(/*users=*/1, /*horizon=*/10, /*outage_dbm=*/-112.0);
  EXPECT_EQ(hand_built.seed(), 0u);
  EXPECT_EQ(hand_built.fingerprint(), 0u);
}

TEST(FaultInjector, RejectsPopulationMismatch) {
  FaultSchedule schedule(/*users=*/2, /*horizon=*/10, /*outage_dbm=*/-112.0);
  schedule.set_departure(0, 1);
  FaultInjector injector(share(std::move(schedule)));
  SlotContext ctx = make_context({TestUser{}});
  EXPECT_THROW(injector.degrade_context(ctx), Error);
  Allocation alloc = Allocation::zeros(1);
  EXPECT_THROW(injector.reconcile_allocation(ctx, alloc), Error);
}

}  // namespace
}  // namespace jstream
