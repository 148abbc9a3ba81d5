#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

using testing::TestUser;
using testing::make_context;

SlotOutcome make_outcome(std::size_t users) {
  SlotOutcome outcome;
  outcome.units.assign(users, 0);
  outcome.kb.assign(users, 0.0);
  outcome.trans_mj.assign(users, 0.0);
  outcome.tail_mj.assign(users, 0.0);
  outcome.rebuffer_s.assign(users, 0.0);
  outcome.need_kb.assign(users, 0.0);
  return outcome;
}

TEST(Metrics, AccumulatesPerUserTotals) {
  MetricsCollector collector(2);
  const SlotContext ctx = make_context({TestUser{}, TestUser{}});
  SlotOutcome outcome = make_outcome(2);
  outcome.units = {3, 0};
  outcome.kb = {300.0, 0.0};
  outcome.trans_mj = {150.0, 0.0};
  outcome.tail_mj = {0.0, 700.0};
  outcome.rebuffer_s = {0.0, 1.0};
  outcome.need_kb = {400.0, 400.0};
  collector.record_slot(ctx, outcome);
  collector.record_slot(ctx, outcome);
  const RunMetrics metrics = collector.finish();

  EXPECT_EQ(metrics.slots_run, 2);
  EXPECT_DOUBLE_EQ(metrics.per_user[0].trans_mj, 300.0);
  EXPECT_DOUBLE_EQ(metrics.per_user[1].tail_mj, 1400.0);
  EXPECT_DOUBLE_EQ(metrics.per_user[0].delivered_kb, 600.0);
  EXPECT_EQ(metrics.per_user[0].tx_slots, 2);
  EXPECT_EQ(metrics.per_user[1].tx_slots, 0);
  EXPECT_DOUBLE_EQ(metrics.per_user[1].rebuffer_s, 2.0);
  EXPECT_DOUBLE_EQ(metrics.total_energy_mj(), 1700.0);
  EXPECT_DOUBLE_EQ(metrics.total_trans_mj(), 300.0);
  EXPECT_DOUBLE_EQ(metrics.total_tail_mj(), 1400.0);
  EXPECT_DOUBLE_EQ(metrics.total_rebuffer_s(), 2.0);
}

TEST(Metrics, PerSlotSeriesAndFairness) {
  MetricsCollector collector(2);
  const SlotContext ctx = make_context({TestUser{}, TestUser{}});
  SlotOutcome outcome = make_outcome(2);
  outcome.kb = {400.0, 0.0};
  outcome.need_kb = {400.0, 400.0};  // shares 1 and 0 -> Jain = 0.5
  outcome.trans_mj = {100.0, 0.0};
  collector.record_slot(ctx, outcome);
  const RunMetrics metrics = collector.finish();
  ASSERT_EQ(metrics.slot_fairness.size(), 1u);
  EXPECT_NEAR(metrics.slot_fairness[0], 0.5, 1e-12);
  ASSERT_EQ(metrics.slot_energy_mj.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.slot_energy_mj[0], 100.0);
  EXPECT_EQ(metrics.rebuffer_samples_s.size(), 2u);
}

TEST(Metrics, FairnessSkipsSlotsWithoutNeed) {
  MetricsCollector collector(1);
  const SlotContext ctx = make_context({TestUser{}});
  SlotOutcome outcome = make_outcome(1);
  outcome.need_kb = {0.0};
  collector.record_slot(ctx, outcome);
  const RunMetrics metrics = collector.finish();
  EXPECT_TRUE(metrics.slot_fairness.empty());
  EXPECT_DOUBLE_EQ(metrics.mean_fairness(), 1.0);  // vacuous
}

TEST(Metrics, SessionSlotsStopAtPlaybackEnd) {
  MetricsCollector collector(1);
  std::vector<TestUser> playing{TestUser{}};
  std::vector<TestUser> done{TestUser{}};
  done[0].elapsed_play_s = done[0].total_play_s;
  SlotOutcome outcome = make_outcome(1);
  outcome.rebuffer_s = {1.0};
  collector.record_slot(make_context(playing), outcome);

  SlotContext done_ctx = make_context(done);
  done_ctx.users[0].playback_done = true;
  SlotOutcome quiet = make_outcome(1);
  collector.record_slot(done_ctx, quiet);
  const RunMetrics metrics = collector.finish();
  EXPECT_EQ(metrics.per_user[0].session_slots, 1);
  EXPECT_TRUE(metrics.per_user[0].playback_finished);
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 1.0);
  // Only the in-playback slot contributed a rebuffer sample.
  EXPECT_EQ(metrics.rebuffer_samples_s.size(), 1u);
}

TEST(Metrics, PerSlotAveragesNormalizeBySessionSlots) {
  MetricsCollector collector(1);
  const SlotContext ctx = make_context({TestUser{}});
  SlotOutcome outcome = make_outcome(1);
  outcome.units = {1};
  outcome.trans_mj = {200.0};
  outcome.rebuffer_s = {0.5};
  outcome.need_kb = {400.0};
  outcome.kb = {100.0};
  for (int i = 0; i < 4; ++i) collector.record_slot(ctx, outcome);
  const RunMetrics metrics = collector.finish();
  EXPECT_DOUBLE_EQ(metrics.avg_energy_per_user_slot_mj(), 200.0);
  EXPECT_DOUBLE_EQ(metrics.avg_rebuffer_per_user_slot_s(), 0.5);
  EXPECT_DOUBLE_EQ(metrics.avg_tail_per_user_slot_mj(), 0.0);
}

TEST(Metrics, SeriesCanBeDisabled) {
  MetricsCollector collector(1, /*keep_series=*/false);
  const SlotContext ctx = make_context({TestUser{}});
  SlotOutcome outcome = make_outcome(1);
  outcome.need_kb = {400.0};
  outcome.kb = {400.0};
  collector.record_slot(ctx, outcome);
  const RunMetrics metrics = collector.finish();
  EXPECT_TRUE(metrics.slot_fairness.empty());
  EXPECT_TRUE(metrics.slot_energy_mj.empty());
  EXPECT_TRUE(metrics.rebuffer_samples_s.empty());
  EXPECT_EQ(metrics.slots_run, 1);  // aggregates still collected
}

TEST(Metrics, SeriesOffKeepsEveryAggregate) {
  // Without series the fairness shares are skipped; every total is unchanged.
  MetricsCollector with_series(2, /*keep_series=*/true);
  MetricsCollector without(2, /*keep_series=*/false);
  const SlotContext ctx = make_context({TestUser{}, TestUser{}});
  SlotOutcome outcome = make_outcome(2);
  outcome.units = {2, 1};
  outcome.kb = {200.0, 100.0};
  outcome.need_kb = {400.0, 300.0};
  outcome.trans_mj = {90.0, 60.0};
  outcome.tail_mj = {0.0, 5.0};
  outcome.rebuffer_s = {0.25, 0.5};
  for (int i = 0; i < 3; ++i) {
    with_series.record_slot(ctx, outcome);
    without.record_slot(ctx, outcome);
  }
  const RunMetrics a = with_series.finish();
  const RunMetrics b = without.finish();
  EXPECT_EQ(a.slot_fairness.size(), 3u);
  EXPECT_TRUE(b.slot_fairness.empty());
  EXPECT_EQ(a.slots_run, b.slots_run);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.per_user[i].trans_mj, b.per_user[i].trans_mj);
    EXPECT_EQ(a.per_user[i].tail_mj, b.per_user[i].tail_mj);
    EXPECT_EQ(a.per_user[i].delivered_kb, b.per_user[i].delivered_kb);
    EXPECT_EQ(a.per_user[i].rebuffer_s, b.per_user[i].rebuffer_s);
    EXPECT_EQ(a.per_user[i].tx_slots, b.per_user[i].tx_slots);
    EXPECT_EQ(a.per_user[i].session_slots, b.per_user[i].session_slots);
  }
}

TEST(Metrics, RejectsSizeMismatch) {
  MetricsCollector collector(2);
  const SlotContext ctx = make_context({TestUser{}});
  EXPECT_THROW(collector.record_slot(ctx, make_outcome(1)), Error);
}

TEST(Metrics, AllDepartedSlotContributesNothing) {
  // Fault layer's worst case: every session aborted. The slot still records
  // (energy could in principle exist from tails of earlier slots) but no
  // session clock ticks, no stall samples accrue, and fairness has no sample.
  MetricsCollector collector(2);
  SlotContext ctx = make_context({TestUser{}, TestUser{}});
  for (auto& info : ctx.users) {
    info.departed = true;
    info.needs_data = false;
    info.alloc_cap_units = 0;
  }
  collector.record_slot(ctx, make_outcome(2));
  const RunMetrics metrics = collector.finish();
  EXPECT_EQ(metrics.slots_run, 1);
  EXPECT_EQ(metrics.per_user[0].session_slots, 0);
  EXPECT_EQ(metrics.per_user[1].session_slots, 0);
  EXPECT_TRUE(metrics.slot_fairness.empty());
  EXPECT_TRUE(metrics.rebuffer_samples_s.empty());
  EXPECT_DOUBLE_EQ(metrics.mean_fairness(), 1.0);  // vacuous, not NaN
  EXPECT_DOUBLE_EQ(metrics.avg_energy_per_user_slot_mj(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.avg_rebuffer_per_user_slot_s(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 0.0);  // aborted != finished
}

TEST(Metrics, AllOutagedSlotIsVacuouslyFair) {
  // Every user demands data but none is served (cell-wide deep fade): all
  // shares are zero, and the Jain index defines the all-zero slot as 1.0
  // rather than 0/0.
  MetricsCollector collector(2);
  const SlotContext ctx = make_context({TestUser{}, TestUser{}});
  SlotOutcome outcome = make_outcome(2);
  outcome.need_kb = {400.0, 400.0};
  collector.record_slot(ctx, outcome);
  const RunMetrics metrics = collector.finish();
  ASSERT_EQ(metrics.slot_fairness.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.slot_fairness[0], 1.0);
  EXPECT_DOUBLE_EQ(metrics.mean_fairness(), 1.0);
}

TEST(Metrics, DepartureFreezesSessionAccrual) {
  MetricsCollector collector(1);
  SlotOutcome active = make_outcome(1);
  active.rebuffer_s = {0.5};
  active.trans_mj = {10.0};
  collector.record_slot(make_context({TestUser{}}), active);

  SlotContext gone = make_context({TestUser{}});
  gone.users[0].departed = true;
  const SlotOutcome quiet = make_outcome(1);
  collector.record_slot(gone, quiet);
  collector.record_slot(gone, quiet);
  const RunMetrics metrics = collector.finish();
  EXPECT_EQ(metrics.slots_run, 3);
  EXPECT_EQ(metrics.per_user[0].session_slots, 1);  // clock froze at the abort
  EXPECT_DOUBLE_EQ(metrics.per_user[0].rebuffer_s, 0.5);
  EXPECT_EQ(metrics.rebuffer_samples_s.size(), 1u);
  EXPECT_FALSE(metrics.per_user[0].playback_finished);
  // Per-slot averages normalize by the frozen session-slot clock.
  EXPECT_DOUBLE_EQ(metrics.avg_energy_per_user_slot_mj(), 10.0);
  EXPECT_DOUBLE_EQ(metrics.avg_rebuffer_per_user_slot_s(), 0.5);
}

TEST(Metrics, DepartedUserDoesNotCountAsFinished) {
  // Even when playback_done flips in the same slot as the abort, departed
  // wins: the session did not complete.
  MetricsCollector collector(1);
  SlotContext ctx = make_context({TestUser{}});
  ctx.users[0].departed = true;
  ctx.users[0].playback_done = true;
  collector.record_slot(ctx, make_outcome(1));
  const RunMetrics metrics = collector.finish();
  EXPECT_FALSE(metrics.per_user[0].playback_finished);
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 0.0);
}

// Degenerate runs (zero users, zero slots, series disabled) must summarize
// without dividing by zero.
TEST(Metrics, EmptyRunSummarizesToZeros) {
  MetricsCollector collector(0, /*keep_series=*/false);
  const RunMetrics metrics = collector.finish();
  EXPECT_EQ(metrics.slots_run, 0);
  EXPECT_TRUE(metrics.per_user.empty());
  EXPECT_DOUBLE_EQ(metrics.total_energy_mj(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.total_rebuffer_s(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.avg_energy_per_user_slot_mj(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.avg_tail_per_user_slot_mj(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.avg_rebuffer_per_user_slot_s(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.mean_fairness(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 0.0);
}

TEST(Metrics, ZeroSlotRunSummarizesToZeros) {
  MetricsCollector collector(3);  // users exist but no slot is ever recorded
  const RunMetrics metrics = collector.finish();
  EXPECT_EQ(metrics.slots_run, 0);
  EXPECT_DOUBLE_EQ(metrics.avg_energy_per_user_slot_mj(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.avg_rebuffer_per_user_slot_s(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.mean_fairness(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.completion_rate(), 0.0);
}

}  // namespace
}  // namespace jstream
