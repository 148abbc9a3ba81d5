#include "baselines/estreamer.hpp"

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

TEST(EStreamer, BurstsTowardBufferCapacity) {
  EStreamerScheduler scheduler;  // capacity 30 s, resume 6 s
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-60.0, 400.0}};
  users[0].buffer_s = 10.0;
  const Allocation alloc = decide(scheduler, make_context(users));
  // Wants (30 - 10) s * 400 KB/s = 80 units but the link caps at 36.
  EXPECT_EQ(alloc.units[0], 36);
}

TEST(EStreamer, IdlesAtFullBufferUntilResumeThreshold) {
  EStreamerScheduler scheduler;
  scheduler.reset(1);
  std::vector<TestUser> users{TestUser{-60.0, 400.0}};
  users[0].buffer_s = 31.0;
  EXPECT_EQ(decide(scheduler, make_context(users)).units[0], 0);
  users[0].buffer_s = 15.0;  // still above resume threshold
  EXPECT_EQ(decide(scheduler, make_context(users)).units[0], 0);
  users[0].buffer_s = 5.0;  // below resume threshold: burst again
  EXPECT_GT(decide(scheduler, make_context(users)).units[0], 0);
}

TEST(EStreamer, SignalBlindByDesign) {
  // Identical buffers, wildly different channels: EStreamer bursts on both
  // (only the link cap differs).
  EStreamerScheduler scheduler;
  scheduler.reset(2);
  std::vector<TestUser> users{TestUser{-50.0, 400.0}, TestUser{-110.0, 400.0}};
  const SlotContext ctx = make_context(users);
  const Allocation alloc = decide(scheduler, ctx);
  EXPECT_GT(alloc.units[0], 0);
  EXPECT_GT(alloc.units[1], 0);
  EXPECT_EQ(alloc.units[1], ctx.users[1].alloc_cap_units);
}

TEST(EStreamer, RespectsCapacity) {
  EStreamerScheduler scheduler;
  scheduler.reset(10);
  const std::vector<TestUser> users(10, TestUser{-60.0, 500.0});
  const SlotContext ctx = make_context(users, /*capacity_kbps=*/2500.0);
  EXPECT_LE(decide(scheduler, ctx).total_units(), ctx.capacity_units);
}

// +inf passes the range checks and makes every burst's deficit infinite.
TEST(EStreamer, RejectsNonFiniteCapacityByName) {
  for (const double bad : testing::kNonFinite) {
    SchedulerOptions options;
    options.estreamer_capacity_s = bad;
    const std::string error =
        testing::error_message([&] { (void)make_scheduler("estreamer", options); });
    EXPECT_NE(error.find("eStreamer buffer capacity must be finite"), std::string::npos)
        << "capacity " << bad << ": got \"" << error << "\"";
  }
}

// NaN fails the range check as a negative threshold.
TEST(EStreamer, RejectsNonFiniteResumeThresholdByName) {
  for (const double bad : testing::kNonFinite) {
    SchedulerOptions options;
    options.estreamer_resume_s = bad;
    const std::string error =
        testing::error_message([&] { (void)make_scheduler("estreamer", options); });
    EXPECT_NE(error.find("eStreamer resume threshold must be finite"), std::string::npos)
        << "threshold " << bad << ": got \"" << error << "\"";
  }
}

TEST(EStreamer, RejectsBadParamsAndMissingReset) {
  EStreamerScheduler::Params bad;
  bad.resume_threshold_s = 40.0;  // above capacity
  EXPECT_THROW(EStreamerScheduler{bad}, Error);
  EStreamerScheduler scheduler;
  const SlotContext ctx = make_context({TestUser{}});
  EXPECT_THROW((void)decide(scheduler, ctx), Error);
}

}  // namespace
}  // namespace jstream
