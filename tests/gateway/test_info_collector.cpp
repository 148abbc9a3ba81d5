#include "gateway/info_collector.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "gateway/framework.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

using testing::StepThroughputModel;
using testing::make_collector;
using testing::make_endpoint;
using testing::make_endpoints;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_snapshot(const UserSlotInfo& a, const UserSlotInfo& b,
                          const std::string& where) {
  EXPECT_EQ(a.arrived, b.arrived) << where;
  EXPECT_EQ(a.needs_data, b.needs_data) << where;
  EXPECT_TRUE(same_bits(a.signal_dbm, b.signal_dbm)) << where;
  EXPECT_TRUE(same_bits(a.bitrate_kbps, b.bitrate_kbps)) << where;
  EXPECT_TRUE(same_bits(a.throughput_kbps, b.throughput_kbps)) << where;
  EXPECT_TRUE(same_bits(a.energy_per_kb, b.energy_per_kb)) << where;
  EXPECT_EQ(a.link_units, b.link_units) << where;
  EXPECT_EQ(a.alloc_cap_units, b.alloc_cap_units) << where;
  EXPECT_TRUE(same_bits(a.remaining_kb, b.remaining_kb)) << where;
  EXPECT_TRUE(same_bits(a.buffer_s, b.buffer_s)) << where;
  EXPECT_TRUE(same_bits(a.elapsed_play_s, b.elapsed_play_s)) << where;
  EXPECT_TRUE(same_bits(a.total_play_s, b.total_play_s)) << where;
  EXPECT_TRUE(same_bits(a.rrc_idle_s, b.rrc_idle_s)) << where;
  EXPECT_EQ(a.rrc_promoted, b.rrc_promoted) << where;
  EXPECT_EQ(a.playback_done, b.playback_done) << where;
  EXPECT_EQ(a.departed, b.departed) << where;
  EXPECT_EQ(a.session_epoch, b.session_epoch) << where;
}

TEST(InfoCollector, TraceBackedAndLiveEndpointsCollectIdenticalSnapshots) {
  auto linear = std::make_shared<const LinearThroughputModel>(60.0, 7300.0);
  auto step = std::make_shared<const StepThroughputModel>();
  const std::pair<LinkModel, const char*> links[] = {
      {make_paper_link_model(), "paper"},
      {LinkModel{linear, std::make_shared<const FittedPowerModel>(linear, -0.1, 1500.0)},
       "custom linear"},
      {LinkModel{step, std::make_shared<const FittedPowerModel>(step)}, "custom step"}};
  const std::pair<SignalKind, const char*> kinds[] = {{SignalKind::kSine, "sine"},
                                                      {SignalKind::kGaussMarkov, "gauss-markov"},
                                                      {SignalKind::kTrace, "trace"}};
  for (const auto& [kind, kind_name] : kinds) {
    for (const bool vbr : {false, true}) {
      ScenarioConfig config = paper_scenario(/*users=*/9, /*seed=*/77);
      config.max_slots = 240;
      config.signal_kind = kind;
      config.vbr = vbr;
      config.capacity_kbps = 600.0 * as_double(config.users);
      if (kind == SignalKind::kTrace) {
        for (int i = 0; i < 150; ++i) config.trace_dbm.push_back(-108.0 + 0.37 * i);
      }
      // The trace holds sig_i(n) only, so one generation serves every link.
      const std::shared_ptr<const SignalTraceSet> trace = generate_signal_trace_set(config);
      for (const auto& [link, link_name] : links) {
        config.link = link;
        const std::string label = std::string(kind_name) + (vbr ? " vbr " : " cbr ") + link_name;
        std::vector<UserEndpoint> live = build_endpoints(config);
        std::vector<UserEndpoint> traced = build_endpoints(config);
        for (std::size_t i = 0; i < traced.size(); ++i) traced[i].attach_trace(trace.get(), i);
        const BaseStation bs(capacity_profile(config));
        const auto framework = [&config] {
          return Framework(InfoCollector(config.slot, config.link, config.radio),
                           make_scheduler("default"), SchedulingMode::kBaseline, config.users);
        };
        Framework live_gateway = framework();
        Framework traced_gateway = framework();
        for (std::int64_t slot = 0; slot < config.max_slots; ++slot) {
          (void)live_gateway.run_slot(slot, live, bs);
          (void)traced_gateway.run_slot(slot, traced, bs);
          const SlotContext& a = live_gateway.last_context();
          const SlotContext& b = traced_gateway.last_context();
          ASSERT_EQ(a.user_count(), b.user_count()) << label;
          for (std::size_t i = 0; i < a.user_count(); ++i) {
            const std::string where = label + " slot " + std::to_string(slot) + " user " +
                                      std::to_string(i);
            expect_same_snapshot(a.users[i], b.users[i], where);
            // Both equal the per-value fits at the collected signal.
            EXPECT_TRUE(same_bits(b.users[i].throughput_kbps,
                                  link.throughput->throughput_kbps(b.users[i].signal_dbm)))
                << where;
            EXPECT_TRUE(same_bits(b.users[i].energy_per_kb,
                                  link.power->energy_per_kb(b.users[i].signal_dbm)))
                << where;
            EXPECT_TRUE(same_bits(b.soa.energy_per_kb[i], b.users[i].energy_per_kb)) << where;
          }
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(InfoCollector, SnapshotsCrossLayerState) {
  auto endpoints = make_endpoints({-80.0, -110.0}, 400.0, 50000.0);
  const InfoCollector collector = make_collector();
  const BaseStation bs(20000.0);

  for (auto& endpoint : endpoints) endpoint.buffer.begin_slot();
  const SlotContext ctx = collector.collect(0, endpoints, bs);
  for (auto& endpoint : endpoints) endpoint.buffer.end_slot();

  ASSERT_EQ(ctx.user_count(), 2u);
  EXPECT_EQ(ctx.capacity_units, 200);
  EXPECT_DOUBLE_EQ(ctx.users[0].signal_dbm, -80.0);
  EXPECT_DOUBLE_EQ(ctx.users[0].bitrate_kbps, 400.0);
  // v(-80) = 2303 KB/s -> 23 units; v(-110) = 329 -> 3 units.
  EXPECT_EQ(ctx.users[0].link_units, 23);
  EXPECT_EQ(ctx.users[1].link_units, 3);
  EXPECT_TRUE(ctx.users[0].needs_data);
  EXPECT_DOUBLE_EQ(ctx.users[0].remaining_kb, 50000.0);
  EXPECT_FALSE(ctx.users[0].rrc_promoted);
  EXPECT_FALSE(ctx.users[0].playback_done);
  ASSERT_NE(ctx.throughput, nullptr);
  ASSERT_NE(ctx.power, nullptr);
  ASSERT_NE(ctx.radio, nullptr);
}

TEST(InfoCollector, AllocCapBoundedByRemainingContent) {
  // 250 KB left -> ceil(250/100) = 3 units even though the link supports 23.
  auto endpoints = make_endpoints({-80.0}, 400.0, 250.0);
  const InfoCollector collector = make_collector();
  const BaseStation bs(20000.0);
  for (auto& endpoint : endpoints) endpoint.buffer.begin_slot();
  const SlotContext ctx = collector.collect(0, endpoints, bs);
  EXPECT_EQ(ctx.users[0].alloc_cap_units, 3);
}

TEST(InfoCollector, FinishedUserHasZeroCap) {
  auto endpoints = make_endpoints({-80.0}, 400.0, 300.0);
  endpoints[0].delivered_kb = 300.0;  // everything delivered
  const InfoCollector collector = make_collector();
  const BaseStation bs(20000.0);
  for (auto& endpoint : endpoints) endpoint.buffer.begin_slot();
  const SlotContext ctx = collector.collect(0, endpoints, bs);
  EXPECT_FALSE(ctx.users[0].needs_data);
  EXPECT_EQ(ctx.users[0].alloc_cap_units, 0);
}

TEST(InfoCollector, CarriesSlotParamsThrough) {
  const SlotParams params{0.5, 50.0};
  const InfoCollector collector = make_collector(params);
  auto endpoints = make_endpoints({-80.0});
  const BaseStation bs(20000.0);
  for (auto& endpoint : endpoints) endpoint.buffer.begin_slot();
  const SlotContext ctx = collector.collect(3, endpoints, bs);
  EXPECT_DOUBLE_EQ(ctx.params.tau_s, 0.5);
  EXPECT_DOUBLE_EQ(ctx.params.delta_kb, 50.0);
  // capacity: floor(0.5 * 20000 / 50) = 200
  EXPECT_EQ(ctx.capacity_units, 200);
  EXPECT_EQ(ctx.slot, 3);
}

TEST(InfoCollector, RejectsInvalidConstruction) {
  EXPECT_THROW(InfoCollector(SlotParams{0.0, 100.0}, make_paper_link_model(),
                             paper_3g_profile()),
               Error);
  EXPECT_THROW(InfoCollector(SlotParams{1.0, 0.0}, make_paper_link_model(),
                             paper_3g_profile()),
               Error);
  LinkModel incomplete;
  EXPECT_THROW(InfoCollector(SlotParams{}, incomplete, paper_3g_profile()), Error);
}

TEST(InfoCollector, RejectsNegativeSlot) {
  const InfoCollector collector = make_collector();
  auto endpoints = make_endpoints({-80.0});
  const BaseStation bs(20000.0);
  EXPECT_THROW((void)collector.collect(-1, endpoints, bs), Error);
}

}  // namespace
}  // namespace jstream
