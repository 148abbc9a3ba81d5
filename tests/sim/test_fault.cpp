// Fault layer unit tests: schedule generation is a pure function of the
// scenario (per-family stream independence included), the window containers
// enforce their ordering contract, and the FaultInjector rewrites slot
// contexts exactly as documented — permanent deep-fade truth, capacity
// scaling, departure zeroing, and the stale-view/reconcile round trip.

#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
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
