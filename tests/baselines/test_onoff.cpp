#include "baselines/onoff.hpp"

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

TEST(OnOff, StartsOnAndGrabsFullRate) {
  OnOffScheduler scheduler(10.0, 40.0);
  scheduler.reset(1);
  const SlotContext ctx = make_context({TestUser{-80.0, 400.0}});
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_EQ(alloc.units[0], ctx.users[0].alloc_cap_units);
}

TEST(OnOff, TurnsOffAboveHighWatermark) {
  OnOffScheduler scheduler(10.0, 40.0);
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-80.0, 400.0}};
  users[0].buffer_s = 45.0;
  const SlotContext ctx = make_context(users);
  EXPECT_EQ(decide(scheduler, ctx).units[0], 0);
}

TEST(OnOff, StaysOffUntilLowWatermark) {
  OnOffScheduler scheduler(10.0, 40.0);
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-80.0, 400.0}};
  users[0].buffer_s = 45.0;
  (void)decide(scheduler, make_context(users));  // flips to OFF
  users[0].buffer_s = 25.0;                        // between watermarks
  EXPECT_EQ(decide(scheduler, make_context(users)).units[0], 0);
  users[0].buffer_s = 9.0;                         // below low watermark
  EXPECT_GT(decide(scheduler, make_context(users)).units[0], 0);
}

TEST(OnOff, HysteresisKeepsOnBetweenWatermarks) {
  OnOffScheduler scheduler(10.0, 40.0);
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-80.0, 400.0}};
  users[0].buffer_s = 25.0;  // between watermarks, initial phase is ON
  EXPECT_GT(decide(scheduler, make_context(users)).units[0], 0);
}

TEST(OnOff, RespectsCapacityAcrossUsers) {
  OnOffScheduler scheduler(10.0, 40.0);
  scheduler.reset(6);
  const std::vector<TestUser> users(6, TestUser{-70.0, 400.0});
  const SlotContext ctx = make_context(users, /*capacity_kbps=*/3000.0);
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_LE(alloc.total_units(), ctx.capacity_units);
}

TEST(OnOff, RejectsBadWatermarksAndMissingReset) {
  EXPECT_THROW(OnOffScheduler(-1.0, 40.0), Error);
  EXPECT_THROW(OnOffScheduler(40.0, 10.0), Error);
  OnOffScheduler scheduler;
  const SlotContext ctx = make_context({TestUser{}});
  EXPECT_THROW((void)decide(scheduler, ctx), Error);
}

// +inf passed the range checks and never switched a user off.
TEST(OnOff, RejectsNonFiniteWatermarksByName) {
  for (const double bad : testing::kNonFinite) {
    SchedulerOptions high;
    high.onoff_high_s = bad;
    const std::string high_error =
        testing::error_message([&] { (void)make_scheduler("onoff", high); });
    EXPECT_NE(high_error.find("ON-OFF high watermark must be finite"), std::string::npos)
        << "value " << bad << ": got \"" << high_error << "\"";
    SchedulerOptions low;
    low.onoff_low_s = bad;
    const std::string low_error =
        testing::error_message([&] { (void)make_scheduler("onoff", low); });
    EXPECT_NE(low_error.find("ON-OFF low watermark must be finite"), std::string::npos)
        << "value " << bad << ": got \"" << low_error << "\"";
  }
}

}  // namespace
}  // namespace jstream
