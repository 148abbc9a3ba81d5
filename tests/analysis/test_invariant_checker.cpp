// Paper-invariant validator tests. The acceptance case: an intentionally
// broken scheduler (capacity overshoot) wired through the real Framework is
// caught by the validator with the correct equation named — before the
// DataTransmitter's own feasibility guard sees the allocation. Clean runs of
// the real schedulers must check every slot and raise nothing.

#include "analysis/invariant_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/default_scheduler.hpp"
#include "baselines/factory.hpp"
#include "core/ema.hpp"
#include "gateway/framework.hpp"
#include "net/base_station.hpp"
#include "test_helpers.hpp"

namespace jstream::analysis {
namespace {

using testing::make_collector;
using testing::make_endpoints;

/// Restores the process-wide validation flag on scope exit.
struct ValidationGuard {
  bool previous = validation_enabled();
  ValidationGuard() { set_validation_enabled(true); }
  ~ValidationGuard() { set_validation_enabled(previous); }
};

/// Overshoots the base-station capacity: grants every user its full link cap
/// even when the sum exceeds constraint (2).
class CapacityOvershootScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "broken-capacity"; }
  void reset(std::size_t) override {}
  void allocate_into(const SlotContext& ctx, Allocation& out) override {
    out.units.assign(ctx.users.size(), 0);
    for (std::size_t i = 0; i < ctx.users.size(); ++i) {
      out.units[i] = ctx.users[i].link_units;
    }
  }
};

/// Overshoots one user's per-link bound (constraint (1)).
class LinkOvershootScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "broken-link"; }
  void reset(std::size_t) override {}
  void allocate_into(const SlotContext& ctx, Allocation& out) override {
    out.units.assign(ctx.users.size(), 0);
    if (!ctx.users.empty()) out.units[0] = ctx.users[0].alloc_cap_units + 1;
  }
};

/// Reports virtual queues frozen at zero, violating the Eq. 16 recursion
/// from the second validated slot onward.
class FrozenQueueScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "broken-queues"; }
  void reset(std::size_t users) override { queues_.assign(users, 0.0); }
  void allocate_into(const SlotContext& ctx, Allocation& out) override {
    out.units.assign(ctx.users.size(), 0);
  }
  [[nodiscard]] std::span<const double> virtual_queues() const override {
    return queues_;
  }

 private:
  std::vector<double> queues_;
};

TEST(InvariantChecker, RuntimeFlagToggles) {
  const bool before = validation_enabled();
  set_validation_enabled(true);
  EXPECT_TRUE(validation_enabled());
  set_validation_enabled(false);
  EXPECT_FALSE(validation_enabled());
  set_validation_enabled(before);
}

TEST(InvariantChecker, CapacityOvershootCaughtThroughFramework) {
  const ValidationGuard guard;
  // Two strong users whose combined link rate dwarfs a small cell: granting
  // both their link caps overshoots Eq. (2).
  auto endpoints = make_endpoints({-60.0, -60.0}, 400.0, 1e6);
  const BaseStation bs(500.0);  // 500 kbps cell << 2 links
  Framework framework(make_collector(), std::make_unique<CapacityOvershootScheduler>(),
                      SchedulingMode::kBaseline, endpoints.size());
  try {
    (void)framework.run_slot(0, endpoints, bs);
    FAIL() << "capacity overshoot not caught";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.violation().equation, "Eq. (2)");
    EXPECT_EQ(violation.violation().scheduler, "broken-capacity");
    EXPECT_EQ(violation.violation().slot, 0);
    EXPECT_NE(std::string(violation.what()).find("Eq. (2)"), std::string::npos);
  }
}

TEST(InvariantChecker, LinkOvershootCaughtWithUserNamed) {
  const ValidationGuard guard;
  auto endpoints = make_endpoints({-80.0}, 400.0, 1e6);
  const BaseStation bs(20000.0);
  Framework framework(make_collector(), std::make_unique<LinkOvershootScheduler>(),
                      SchedulingMode::kBaseline, endpoints.size());
  try {
    (void)framework.run_slot(0, endpoints, bs);
    FAIL() << "link overshoot not caught";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.violation().equation, "Eq. (1)");
    EXPECT_EQ(violation.violation().user, 0);
  }
}

TEST(InvariantChecker, FrozenVirtualQueuesViolateEq16) {
  const ValidationGuard guard;
  auto endpoints = make_endpoints({-80.0}, 400.0, 1e6);
  const BaseStation bs(20000.0);
  Framework framework(make_collector(), std::make_unique<FrozenQueueScheduler>(),
                      SchedulingMode::kBaseline, endpoints.size());
  // Slot 0 seeds the shadow recursion (adopted as-is); slot 1 must advance by
  // tau - t with t = 0, so a queue frozen at zero breaks the recursion.
  (void)framework.run_slot(0, endpoints, bs);
  try {
    (void)framework.run_slot(1, endpoints, bs);
    FAIL() << "frozen queue not caught";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.violation().equation, "Eq. (16)");
    EXPECT_EQ(violation.violation().slot, 1);
  }
}

TEST(InvariantChecker, CleanRunChecksEverySlot) {
  const ValidationGuard guard;
  auto endpoints = make_endpoints({-70.0, -85.0, -95.0}, 400.0, 4000.0);
  const BaseStation bs(20000.0);
  Framework framework(make_collector(), std::make_unique<DefaultScheduler>(),
                      SchedulingMode::kBaseline, endpoints.size());
  constexpr std::int64_t kSlots = 50;
  for (std::int64_t slot = 0; slot < kSlots; ++slot) {
    (void)framework.run_slot(slot, endpoints, bs);
  }
  EXPECT_EQ(framework.validator().slots_checked(), kSlots);
}

TEST(InvariantChecker, EmaQueueRecursionValidatesClean) {
  const ValidationGuard guard;
  auto endpoints = make_endpoints({-70.0, -90.0}, 400.0, 8000.0);
  const BaseStation bs(5000.0);
  SchedulerOptions options;
  Framework framework(make_collector(),
                      make_scheduler("ema", options),
                      SchedulingMode::kEnergyMinimization, endpoints.size());
  for (std::int64_t slot = 0; slot < 80; ++slot) {
    (void)framework.run_slot(slot, endpoints, bs);
  }
  EXPECT_EQ(framework.validator().slots_checked(), 80);
}

TEST(InvariantChecker, DisabledValidatorChecksNothing) {
  set_validation_enabled(false);
  auto endpoints = make_endpoints({-60.0, -60.0}, 400.0, 1e6);
  const BaseStation bs(500.0);
  Framework framework(make_collector(), std::make_unique<CapacityOvershootScheduler>(),
                      SchedulingMode::kBaseline, endpoints.size());
  // With validation off the transmitter's own guard still rejects the
  // allocation — but as a generic Error, not an InvariantViolation, and the
  // validator never runs.
  EXPECT_THROW((void)framework.run_slot(0, endpoints, bs), Error);
  EXPECT_EQ(framework.validator().slots_checked(), 0);
}

TEST(InvariantChecker, MidRunEnableResyncs) {
  auto endpoints = make_endpoints({-70.0, -90.0}, 400.0, 8000.0);
  const BaseStation bs(5000.0);
  SchedulerOptions options;
  Framework framework(make_collector(),
                      make_scheduler("ema", options),
                      SchedulingMode::kEnergyMinimization, endpoints.size());
  set_validation_enabled(false);
  for (std::int64_t slot = 0; slot < 10; ++slot) {
    (void)framework.run_slot(slot, endpoints, bs);
  }
  // Enabling mid-run must adopt the scheduler's current queue levels and RRC
  // clocks instead of raising spurious Eq. 16 / RRC violations.
  set_validation_enabled(true);
  for (std::int64_t slot = 10; slot < 40; ++slot) {
    (void)framework.run_slot(slot, endpoints, bs);
  }
  set_validation_enabled(false);
  EXPECT_EQ(framework.validator().slots_checked(), 30);
}

TEST(InvariantChecker, ViolationToStringNamesEverything) {
  Violation violation;
  violation.scheduler = "ema";
  violation.equation = "Eq. (7)";
  violation.slot = 12;
  violation.user = 3;
  violation.detail = "buffer went negative";
  const std::string text = violation.to_string();
  EXPECT_NE(text.find("ema"), std::string::npos);
  EXPECT_NE(text.find("Eq. (7)"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
  EXPECT_NE(text.find("user=3"), std::string::npos);
  EXPECT_NE(text.find("buffer went negative"), std::string::npos);
}

TEST(InvariantChecker, AllFactorySchedulersValidateClean) {
  const ValidationGuard guard;
  for (const char* name : {"default", "throttling", "onoff", "salsa",
                           "estreamer", "rtma", "ema", "ema-fast"}) {
    auto endpoints = make_endpoints({-70.0, -82.0, -94.0}, 400.0, 6000.0);
    const BaseStation bs(3000.0);
    SchedulerOptions options;
    Framework framework(make_collector(),
                        make_scheduler(name, options),
                        SchedulingMode::kBaseline, endpoints.size());
    for (std::int64_t slot = 0; slot < 60; ++slot) {
      (void)framework.run_slot(slot, endpoints, bs);
    }
    EXPECT_EQ(framework.validator().slots_checked(), 60) << name;
  }
}

}  // namespace
}  // namespace jstream::analysis
