// Pins the zero-allocation guarantee of the steady-state slot path: after a
// warm-up phase (workspaces grown, telemetry probes resolved), Framework::
// run_slot must perform no heap allocations. This binary replaces the global
// operator new to count allocations, so it must stay a separate test target —
// do not merge these tests into another binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "baselines/default_scheduler.hpp"
#include "baselines/factory.hpp"
#include "common/thread_pool.hpp"
#include "core/adaptive_rtma.hpp"
#include "core/ema.hpp"
#include "core/ema_fast.hpp"
#include "core/predictive_ema.hpp"
#include "core/rtma.hpp"
#include "gateway/framework.hpp"
#include "radio/link_model.hpp"
#include "radio/signal_trace.hpp"
#include "session/service.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"
#include "test_helpers.hpp"
#include "common/units.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  void* ptr = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms (telemetry's SlotTracer ring uses one) must come from the
// same counted malloc, or their blocks would reach the free()-based deletes
// below from another allocator (an alloc-dealloc mismatch under ASan).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace jstream {
namespace {

using testing::make_collector;
using testing::make_endpoints;

// Runs `slots` slots starting at `first_slot` and returns how many heap
// allocations they performed in total.
std::uint64_t allocations_over_slots(Framework& framework,
                                     std::vector<UserEndpoint>& endpoints,
                                     const BaseStation& bs, std::int64_t first_slot,
                                     std::int64_t slots) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::int64_t slot = first_slot; slot < first_slot + slots; ++slot) {
    (void)framework.run_slot(slot, endpoints, bs);
  }
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

std::uint64_t steady_state_allocs(std::unique_ptr<Scheduler> scheduler) {
  // Large sessions so every user still wants data for the whole run; mixed
  // signals so the DP sees heterogeneous caps and slopes each slot.
  auto endpoints = make_endpoints({-65.0, -75.0, -85.0, -95.0, -105.0}, 400.0, 1e9);
  const BaseStation bs(2000.0);  // scarce: forces non-trivial DP decisions
  Framework framework(make_collector(), std::move(scheduler),
                      SchedulingMode::kEnergyMinimization, endpoints.size());
  constexpr std::int64_t kWarmup = 50;
  constexpr std::int64_t kMeasured = 200;
  (void)allocations_over_slots(framework, endpoints, bs, 0, kWarmup);
  return allocations_over_slots(framework, endpoints, bs, kWarmup, kMeasured);
}

TEST(ZeroAllocSlot, CounterSeesAllocations) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto* probe = new std::vector<double>(1024);
  delete probe;
  EXPECT_GT(g_alloc_count.load(std::memory_order_relaxed), before);
}

TEST(ZeroAllocSlot, EmaDpSteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(std::make_unique<EmaScheduler>()), 0u);
}

TEST(ZeroAllocSlot, EmaGreedySteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(std::make_unique<EmaFastScheduler>()), 0u);
}

TEST(ZeroAllocSlot, PredictiveEmaSteadyStateIsAllocationFree) {
  // The predictive slot path: adjust_costs reads the prebuilt price tables
  // every slot (both terms fire — the forecast disagrees with the live
  // constant signals, so some users see cheaper-ahead and some see
  // below-mean). The lazy table build lands in the warm-up; the measured
  // region must stay allocation-free.
  std::vector<std::vector<double>> forecast(5, std::vector<double>(300));
  const std::vector<double> levels = {-65.0, -75.0, -85.0, -95.0, -105.0};
  for (std::size_t user = 0; user < forecast.size(); ++user) {
    for (std::size_t slot = 0; slot < forecast[user].size(); ++slot) {
      // A slow per-user zig-zag around the live level keeps the windowed
      // minimum and the window mean strictly away from the current price.
      forecast[user][slot] =
          levels[user] + ((slot / 10 + user) % 2 == 0 ? 6.0 : -6.0);
    }
  }
  PredictiveEmaConfig config;
  config.horizon_slots = 40;
  config.safety_margin_s = 0.0;  // let the deferral side engage too
  EXPECT_EQ(steady_state_allocs(std::make_unique<PredictiveEmaScheduler>(
                EmaConfig{}, config, std::move(forecast))),
            0u);
}

TEST(ZeroAllocSlot, DefaultSchedulerSteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(std::make_unique<DefaultScheduler>()), 0u);
}

TEST(ZeroAllocSlot, RtmaSteadyStateIsAllocationFree) {
  // Finite budget so the Eq. 12 threshold bisection runs every slot too.
  RtmaConfig config;
  config.energy_budget_mj = 1000.0;
  EXPECT_EQ(steady_state_allocs(std::make_unique<RtmaScheduler>(config)), 0u);
}

TEST(ZeroAllocSlot, AdaptiveRtmaSteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(std::make_unique<AdaptiveRtmaScheduler>()), 0u);
}

TEST(ZeroAllocSlot, SoaRebuildSteadyStateIsAllocationFree) {
  // The SoA mirror every scheduler hot loop now reads: once the lanes have
  // grown to the population, rebuilding them each slot allocates nothing.
  auto endpoints = make_endpoints({-65.0, -75.0, -85.0, -95.0, -105.0}, 400.0, 1e9);
  const BaseStation bs(2000.0);
  Framework framework(make_collector(), std::make_unique<DefaultScheduler>(),
                      SchedulingMode::kEnergyMinimization, endpoints.size());
  (void)allocations_over_slots(framework, endpoints, bs, 0, 50);
  SlotContext ctx = framework.last_context();  // the copy is the warm-up
  ctx.finalize();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) ctx.finalize();
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
}

TEST(ZeroAllocSlot, FaultedSlotPathIsAllocationFree) {
  // Degraded-cell path: the FaultInjector's degrade/reconcile hooks run on
  // every slot with all four fault families firing inside the measured
  // region — workspaces are sized at construction, window queries are binary
  // searches, so the steady state must stay allocation-free.
  auto endpoints = make_endpoints({-65.0, -75.0, -85.0, -95.0, -105.0}, 400.0, 1e9);
  const BaseStation bs(2000.0);
  FaultSchedule schedule(endpoints.size(), /*horizon=*/300, /*outage_dbm=*/-112.0);
  for (std::size_t user = 0; user < endpoints.size(); ++user) {
    // Alternating deep fades and stale windows, staggered per user.
    for (std::int64_t begin = 60 + checked_index(user);
         begin + 14 < 300; begin += 24) {
      schedule.add_outage(user, {begin, begin + 6});
      schedule.add_stale_window(user, {begin + 8, begin + 14});
    }
  }
  for (std::int64_t begin = 50; begin + 10 < 300; begin += 40) {
    schedule.add_capacity_window({begin, begin + 10}, 0.5);
  }
  schedule.set_departure(0, 120);  // aborts mid-measurement
  endpoints[0].depart_at(120);     // the endpoint carries the abort slot
  FaultInjector injector(
      std::make_shared<const FaultSchedule>(std::move(schedule)));
  Framework framework(make_collector(), std::make_unique<EmaScheduler>(),
                      SchedulingMode::kEnergyMinimization, endpoints.size());
  framework.attach_fault_hook(&injector);
  (void)allocations_over_slots(framework, endpoints, bs, 0, 50);
  EXPECT_EQ(allocations_over_slots(framework, endpoints, bs, 50, 200), 0u);
}

TEST(ZeroAllocSlot, ServiceModeSteadyStateIsAllocationFree) {
  // Online service mode: arrivals land in the first three slots (trace
  // process), sessions are far too large to finish, so every measured slot is
  // quiescent — the event boundary (bind/release) is the only place the
  // service layer may allocate, and none occurs in the window.
  ScenarioConfig cell = paper_scenario(/*users=*/5, /*seed=*/77);
  cell.max_slots = 300;
  cell.video_min_mb = 5000.0;  // never completes inside the horizon
  cell.video_max_mb = 6000.0;
  ServiceConfig config;
  config.cell = cell;
  config.arrivals.kind = ArrivalKind::kTrace;
  config.arrivals.trace_counts = {2, 1, 2};
  ServiceSimulator simulator(config, std::make_unique<EmaScheduler>());

  for (std::int64_t slot = 0; slot < 50; ++slot) (void)simulator.step();
  EXPECT_EQ(simulator.active_sessions(), 5u);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::int64_t slot = 0; slot < 200; ++slot) (void)simulator.step();
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
}

TEST(ZeroAllocSlot, ServiceSessionReleaseIsAllocationFree) {
  // Mid-window aborts exercise the release path (scan_releases, free-list
  // push, session-end accounting): with the free stack reserved at capacity
  // and records off, releasing sessions allocates nothing either.
  ScenarioConfig cell = paper_scenario(/*users=*/5, /*seed=*/78);
  cell.max_slots = 300;
  cell.video_min_mb = 5000.0;
  cell.video_max_mb = 6000.0;
  cell.faults.departure_fraction = 1.0;  // every bound session aborts eventually
  ServiceConfig config;
  config.cell = cell;
  config.arrivals.kind = ArrivalKind::kTrace;
  config.arrivals.trace_counts = {2, 1, 2};
  ServiceSimulator simulator(config, std::make_unique<EmaScheduler>());

  for (std::int64_t slot = 0; slot < 50; ++slot) (void)simulator.step();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::int64_t slot = 0; slot < 250; ++slot) (void)simulator.step();
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
  const ServiceResult result = simulator.finish();
  EXPECT_GT(result.service.aborted + result.service.in_flight_at_end, 0);
}

TEST(ZeroAllocSlot, TracedSlotPathIsAllocationFree) {
  // Campaign path: endpoints read the precomputed signal matrix instead of
  // driving their SignalModels — still zero allocations per slot.
  auto endpoints = make_endpoints({-65.0, -75.0, -85.0, -95.0, -105.0}, 400.0, 1e9);
  SignalTraceSet trace(endpoints.size(), /*slots=*/300);
  for (std::size_t user = 0; user < endpoints.size(); ++user) {
    trace.fill_user(user, *endpoints[user].signal);
  }
  for (std::size_t user = 0; user < endpoints.size(); ++user) {
    endpoints[user].attach_trace(&trace, user);
  }
  const BaseStation bs(2000.0);
  Framework framework(make_collector(), std::make_unique<DefaultScheduler>(),
                      SchedulingMode::kEnergyMinimization, endpoints.size());
  (void)allocations_over_slots(framework, endpoints, bs, 0, 50);
  EXPECT_EQ(allocations_over_slots(framework, endpoints, bs, 50, 200), 0u);
}

TEST(ZeroAllocSlot, FillOnReadTraceAcrossBlocksIsAllocationFree) {
  // A cache miss's trace fills blocks of rows as the collector first reads
  // them. The measured window crosses two block boundaries, so two fills
  // run inside it: they walk the set's own models into its own matrix and
  // must allocate nothing either.
  ScenarioConfig scenario = paper_scenario(/*users=*/40, /*seed=*/42);
  scenario.max_slots = 4 * SignalTraceSet::kFillBlockSlots;
  TraceCache cache;
  const std::shared_ptr<const SignalTraceSet> trace = cache.get_or_generate(scenario);
  std::vector<UserEndpoint> endpoints = build_endpoints(scenario);
  for (std::size_t i = 0; i < endpoints.size(); ++i) endpoints[i].attach_trace(trace.get(), i);
  const BaseStation bs(capacity_profile(scenario));
  Framework framework(InfoCollector(scenario.slot, scenario.link, scenario.radio),
                      make_scheduler_for_scenario("ema", {}, scenario),
                      SchedulingMode::kBaseline, scenario.users);
  constexpr std::int64_t kWarmup = 20;
  constexpr std::int64_t kMeasured = 2 * SignalTraceSet::kFillBlockSlots;
  (void)allocations_over_slots(framework, endpoints, bs, 0, kWarmup);
  ASSERT_EQ(trace->filled_slots(), SignalTraceSet::kFillBlockSlots);
  EXPECT_EQ(allocations_over_slots(framework, endpoints, bs, kWarmup, kMeasured), 0u);
  EXPECT_EQ(trace->filled_slots(), 3 * SignalTraceSet::kFillBlockSlots);
}

TEST(ZeroAllocStream, ServiceWindowAcrossBlocksIsAllocationFree) {
  // A service cell with no trace streams its channel: at N = 1000 a block is
  // 32 rows, so the measured window enters three new blocks and posts three
  // look-aheads to the shared pool. The posts, the look-aheads' fills on
  // the pool and the slot's row loads must allocate nothing. Every session
  // binds in slot 0 and outlives the horizon, so no event boundary falls in
  // the window either.
  constexpr std::size_t kUsers = 1000;
  ScenarioConfig cell = paper_scenario(kUsers, /*seed=*/79);
  cell.max_slots = 200;
  cell.video_min_mb = 5000.0;
  cell.video_max_mb = 6000.0;
  ServiceConfig config;
  config.cell = cell;
  config.arrivals.kind = ArrivalKind::kTrace;
  config.arrivals.trace_counts = {checked_index(kUsers)};
  ServiceSimulator simulator(config, std::make_unique<EmaScheduler>());
  ASSERT_EQ(SignalTraceSet::stream_block_slots(kUsers), 32);

  for (std::int64_t slot = 0; slot < 50; ++slot) (void)simulator.step();
  ASSERT_EQ(simulator.active_sessions(), kUsers);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::int64_t slot = 50; slot < 150; ++slot) (void)simulator.step();  // blocks 2, 3, 4
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
}

TEST(ZeroAllocStream, PostToAWarmPoolIsAllocationFree) {
  // A stream's look-ahead captures one pointer and one index, which
  // std::function keeps in place; the pool's queue is a ring that grows only
  // when full. Once warm, a post allocates nothing.
  constexpr std::int64_t kTasks = 100;
  ThreadPool pool(2);
  std::atomic<bool> hold{true};
  std::atomic<std::int64_t> ran{0};
  std::atomic<std::int64_t>* counter = &ran;
  const auto post_tasks = [&] {
    for (std::int64_t i = 0; i < kTasks; ++i) {
      pool.post([counter, step = std::int64_t{1}] { counter->fetch_add(step); });
    }
  };
  const auto wait_for = [&](std::int64_t target) {
    while (ran.load() < target) std::this_thread::yield();
  };
  // Warm-up: every worker waits while all kTasks posts queue behind it, so
  // the ring grows to hold the largest backlog the measured posts can make,
  // however fast the workers drain them.
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.post([&hold] {
      while (hold.load()) std::this_thread::yield();
    });
  }
  post_tasks();
  hold.store(false);
  wait_for(kTasks);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  post_tasks();
  wait_for(2 * kTasks);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
}

// Paper scale, every factory scheduler: paper_scenario(40) built through
// make_scheduler_for_scenario, measured over the perf gate's window (20
// warm-up slots, then 200 slots). The predictive scheduler runs with a
// nonzero horizon so its price-table cost term is on the measured path.
class ZeroAllocPaperScale : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> paper_scale_names() {
  std::vector<std::string> names = scheduler_names();
  for (const std::string& name : scenario_scheduler_names()) names.push_back(name);
  return names;
}

TEST_P(ZeroAllocPaperScale, SteadyStateIsAllocationFree) {
  ScenarioConfig scenario = paper_scenario(/*users=*/40, /*seed=*/42);
  scenario.max_slots = 220;
  SchedulerOptions options;
  options.ema_predictive.horizon_slots = 30;
  std::vector<UserEndpoint> endpoints = build_endpoints(scenario);
  const BaseStation bs(capacity_profile(scenario));
  Framework framework(InfoCollector(scenario.slot, scenario.link, scenario.radio),
                      make_scheduler_for_scenario(GetParam(), options, scenario),
                      SchedulingMode::kBaseline, scenario.users);
  (void)allocations_over_slots(framework, endpoints, bs, 0, 20);
  EXPECT_EQ(allocations_over_slots(framework, endpoints, bs, 20, 200), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FactorySchedulers, ZeroAllocPaperScale, ::testing::ValuesIn(paper_scale_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string id = param_info.param;
      for (char& c : id) {
        if (c == '-') c = '_';
      }
      return id;
    });

}  // namespace
}  // namespace jstream
