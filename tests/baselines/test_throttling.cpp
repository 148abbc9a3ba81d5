#include "baselines/throttling.hpp"

#include <gtest/gtest.h>

#include <string>

#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::decide;
using testing::make_context;

TEST(Throttling, PacesAtFactorTimesEncodingRate) {
  ThrottlingScheduler scheduler(1.25);
  scheduler.reset(2);
  const SlotContext ctx =
      make_context({TestUser{-60.0, 400.0}, TestUser{-60.0, 300.0}});
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_EQ(alloc.units[0], 5);  // ceil(1.25 * 400 / 100)
  EXPECT_EQ(alloc.units[1], 4);  // ceil(1.25 * 300 / 100)
}

TEST(Throttling, LinkCapBindsAtWeakSignal) {
  ThrottlingScheduler scheduler(1.25);
  scheduler.reset(1);
  // v(-110) = 329 KB/s -> 3 units < paced 8 units for a 600 KB/s video.
  const SlotContext ctx = make_context({TestUser{-110.0, 600.0}});
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_EQ(alloc.units[0], 3);
}

TEST(Throttling, TransmitsEverySlotRegardlessOfBuffer) {
  ThrottlingScheduler scheduler;
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-70.0, 400.0}};
  users[0].buffer_s = 500.0;  // huge buffer; throttling does not care
  const SlotContext ctx = make_context(users);
  EXPECT_GT(decide(scheduler, ctx).units[0], 0);
}

TEST(Throttling, FixedOrderStarvesTailUnderPressure) {
  ThrottlingScheduler scheduler(1.25);
  scheduler.reset(3);
  // Capacity of 5 units covers only the first user's pace.
  std::vector<TestUser> users(3, TestUser{-60.0, 400.0});
  bool user2_ever_served = false;
  for (std::int64_t slot = 0; slot < 32; ++slot) {
    const SlotContext ctx = make_context(users, 500.0, SlotParams{}, slot);
    const Allocation alloc = decide(scheduler, ctx);
    EXPECT_EQ(alloc.units[0], 5);  // head of the fixed order always wins
    if (alloc.units[2] > 0) user2_ever_served = true;
  }
  EXPECT_FALSE(user2_ever_served);  // persistent per-flow dominance
}

TEST(Throttling, RespectsCapacity) {
  ThrottlingScheduler scheduler;
  scheduler.reset(8);
  const std::vector<TestUser> users(8, TestUser{-60.0, 600.0});
  const SlotContext ctx = make_context(users, /*capacity_kbps=*/2000.0);
  EXPECT_LE(decide(scheduler, ctx).total_units(), ctx.capacity_units);
}

TEST(Throttling, RejectsFactorBelowOne) {
  EXPECT_THROW(ThrottlingScheduler(0.9), Error);
  EXPECT_NO_THROW(ThrottlingScheduler(1.0));
}

// A factor of +inf passes the >= 1 check and stalls every user; the factory
// option must fail by name like the constructor argument.
TEST(Throttling, RejectsNonFiniteFactorByName) {
  for (const double bad : testing::kNonFinite) {
    SchedulerOptions options;
    options.throttling_rate_factor = bad;
    for (const std::string& error :
         {testing::error_message([&] { ThrottlingScheduler scheduler(bad); }),
          testing::error_message([&] { (void)make_scheduler("throttling", options); })}) {
      EXPECT_NE(error.find("throttling rate factor must be finite"), std::string::npos)
          << "factor " << bad << ": got \"" << error << "\"";
    }
  }
}

}  // namespace
}  // namespace jstream
