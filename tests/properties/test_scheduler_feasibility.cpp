// Property: every scheduler produces allocations satisfying constraints (1)
// and (2) on randomized cross-layer snapshots — the core safety contract of
// the Scheduler interface. Parameterized over the whole factory.
#include <gtest/gtest.h>

#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "net/allocation.hpp"
#include "test_helpers.hpp"
#include "common/units.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

class SchedulerFeasibility : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerFeasibility, HoldsOnRandomSnapshots) {
  auto scheduler = make_scheduler(GetParam());
  Rng rng(0xfea5ULL);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = checked_size(rng.uniform_int(1, 12));
    scheduler->reset(n);
    const double capacity = rng.uniform(500.0, 25000.0);
    for (std::int64_t slot = 0; slot < 20; ++slot) {
      std::vector<TestUser> users;
      for (std::size_t i = 0; i < n; ++i) {
        TestUser user;
        user.signal_dbm = rng.uniform(-110.0, -50.0);
        user.bitrate_kbps = rng.uniform(300.0, 600.0);
        user.remaining_kb = rng.uniform(0.0, 1e5);
        user.buffer_s = rng.uniform(0.0, 60.0);
        user.rrc_idle_s = rng.uniform(0.0, 10.0);
        user.rrc_promoted = rng.uniform() < 0.7;
        users.push_back(user);
      }
      const SlotContext ctx = make_context(users, capacity, SlotParams{}, slot);
      const Allocation alloc = decide(*scheduler, ctx);
      std::vector<std::int64_t> caps;
      for (const auto& user : ctx.users) caps.push_back(user.alloc_cap_units);
      const FeasibilityReport report =
          check_feasible(alloc, caps, ctx.capacity_units);
      ASSERT_TRUE(report.feasible)
          << GetParam() << " trial " << trial << " slot " << slot << ": "
          << report.violation;
    }
  }
}

TEST_P(SchedulerFeasibility, ZeroCapacityYieldsEmptyAllocation) {
  auto scheduler = make_scheduler(GetParam());
  scheduler->reset(3);
  SlotContext ctx = make_context(
      {TestUser{-70.0, 400.0}, TestUser{-80.0, 500.0}, TestUser{-90.0, 300.0}});
  ctx.capacity_units = 0;
  EXPECT_EQ(decide(*scheduler, ctx).total_units(), 0);
}

TEST_P(SchedulerFeasibility, NoAllocationToExhaustedUsers) {
  auto scheduler = make_scheduler(GetParam());
  scheduler->reset(2);
  std::vector<TestUser> users{TestUser{-70.0, 400.0}, TestUser{-70.0, 400.0}};
  users[0].remaining_kb = 0.0;
  const SlotContext ctx = make_context(users);
  EXPECT_EQ(decide(*scheduler, ctx).units[0], 0);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerFeasibility,
                         ::testing::ValuesIn(scheduler_names()),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace jstream
