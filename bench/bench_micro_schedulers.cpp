// Micro-benchmarks (google-benchmark): per-slot cost of every scheduler's
// allocate_into() on a synthetic snapshot, and of the two EMA slot solvers in
// isolation. Establishes that the gateway decision loop comfortably fits the
// paper's 1 s slot budget.
#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/factory.hpp"
#include "core/ema.hpp"
#include "core/ema_fast.hpp"
#include "common/rng.hpp"
#include "gateway/slot_context.hpp"
#include "radio/radio_profile.hpp"
#include "common/units.hpp"

namespace {

using namespace jstream;

/// Deterministic synthetic snapshot with `users` mid-session users.
SlotContext make_context(std::size_t users, const LinkModel& link,
                         const RadioProfile& radio) {
  Rng rng(7);
  SlotContext ctx;
  ctx.slot = 123;
  ctx.params = SlotParams{};
  ctx.capacity_units = ctx.params.capacity_units(20000.0);
  ctx.throughput = link.throughput.get();
  ctx.power = link.power.get();
  ctx.radio = &radio;
  for (std::size_t i = 0; i < users; ++i) {
    UserSlotInfo user;
    user.signal_dbm = rng.uniform(-110.0, -50.0);
    user.bitrate_kbps = rng.uniform(300.0, 600.0);
    user.remaining_kb = rng.uniform(1e4, 3e5);
    user.needs_data = true;
    user.link_units =
        ctx.params.link_units(link.throughput->throughput_kbps(user.signal_dbm));
    user.alloc_cap_units = user.link_units;
    user.buffer_s = rng.uniform(0.0, 30.0);
    user.total_play_s = 1000.0;
    user.elapsed_play_s = rng.uniform(0.0, 500.0);
    user.rrc_idle_s = rng.uniform(0.0, 10.0);
    user.rrc_promoted = true;
    ctx.users.push_back(user);
  }
  ctx.finalize();
  return ctx;
}

void bench_scheduler(benchmark::State& state, const std::string& name) {
  const LinkModel link = make_paper_link_model();
  const RadioProfile radio = paper_3g_profile();
  const auto users = checked_size(state.range(0));
  const SlotContext ctx = make_context(users, link, radio);
  auto scheduler = make_scheduler(name);
  scheduler->reset(users);
  Allocation alloc;
  for (auto _ : state) {
    scheduler->allocate_into(ctx, alloc);
    benchmark::DoNotOptimize(alloc.units.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          checked_index(users));
}

void bench_ema_solver(benchmark::State& state, bool exact) {
  const LinkModel link = make_paper_link_model();
  const RadioProfile radio = paper_3g_profile();
  const auto users = checked_size(state.range(0));
  const SlotContext ctx = make_context(users, link, radio);
  LyapunovQueues queues(users);
  Rng rng(11);
  for (std::size_t i = 0; i < users; ++i) {
    queues.update(i, 1.0, rng.uniform(0.0, 2.0));
  }
  const EmaSlotCosts costs = compute_ema_slot_costs(ctx, queues, 0.05);
  std::vector<std::int64_t> caps;
  for (const auto& user : ctx.users) caps.push_back(user.alloc_cap_units);
  for (auto _ : state) {
    Allocation alloc = exact ? solve_min_cost_dp(costs, caps, ctx.capacity_units)
                             : solve_min_cost_greedy(costs, caps, ctx.capacity_units);
    benchmark::DoNotOptimize(alloc.units.data());
  }
}

}  // namespace

BENCHMARK_CAPTURE(bench_scheduler, default_, "default")->Arg(20)->Arg(40)->Arg(80);
BENCHMARK_CAPTURE(bench_scheduler, throttling, "throttling")->Arg(40);
BENCHMARK_CAPTURE(bench_scheduler, onoff, "onoff")->Arg(40);
BENCHMARK_CAPTURE(bench_scheduler, salsa, "salsa")->Arg(40);
BENCHMARK_CAPTURE(bench_scheduler, estreamer, "estreamer")->Arg(40);
BENCHMARK_CAPTURE(bench_scheduler, rtma, "rtma")->Arg(20)->Arg(40)->Arg(80);
BENCHMARK_CAPTURE(bench_scheduler, ema, "ema")->Arg(20)->Arg(40)->Arg(80);
BENCHMARK_CAPTURE(bench_scheduler, ema_fast, "ema-fast")->Arg(20)->Arg(40)->Arg(80);
BENCHMARK_CAPTURE(bench_ema_solver, dp, true)->Arg(20)->Arg(40)->Arg(80);
BENCHMARK_CAPTURE(bench_ema_solver, greedy, false)->Arg(20)->Arg(40)->Arg(80);

BENCHMARK_MAIN();
