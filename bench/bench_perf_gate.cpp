// Perf regression gate for the slot engine (see docs/PERFORMANCE.md).
//
// Six measurement families, all on pinned deterministic workloads:
//
//  1. Solver microbench: the production EMA solver against the paper-literal
//     O(N*M*phi_max) reference on the same instances. The gate requires the
//     production solver >= 5x over the reference at N = 40 users with
//     M >= 200 capacity units (the paper's evaluation scale).
//  2. Slot-path matrix: end-to-end Framework::run_slot cost (mean ns/slot
//     with a 95% Student-t confidence half-width, both the per-run
//     SignalModel path and the campaign engine's cached-trace path), the
//     scheduler decision alone (ns/solve), and heap allocations per slot for
//     N in {40, 200, 1000} x {default, rtma, ema-fast, ema}. Two gates live
//     here: exact EMA at N = 1000 must run under 1 ms/slot, and every row
//     must allocate nothing in its measured window. This binary replaces the
//     global operator new to count allocations.
//  3. Campaign gate: a 7-scheduler x 8-seed grid at N = 200 over the full
//     10000-slot horizon, run once with per-cell trace regeneration and once
//     through the shared trace cache. Cached results must be bit-identical,
//     and (at the full horizon; REPRO_SLOTS runs report only) >= 3x faster.
//  4. Distributed gate: the same workload shape at 4 seeds, sharded over 4
//     worker processes through run_campaign_distributed. The merged results
//     must hash (xxh64 over the canonical frame encoding) to exactly the
//     serial engine's digest — enforced at every scale, since determinism
//     does not depend on timing. The wall-clock ratio is reported for
//     context only (it tracks core count, which CI does not pin).
//  5. Disk-warm gate: a trace-bound grid (short sessions, full-horizon
//     substrate) run cold against an empty persistent TraceStore and then
//     again with a fresh cache over the now-warm store. The warm pass must
//     regenerate nothing (generations == 0, every miss promoted from mmap)
//     at every scale, and at the full horizon must beat the cold pass by
//     >= 3x wall clock.
//  6. Service-scale gate: one trace-less 110k-population service run (the
//     numbers bench_service_steady part 3 reports): ns/user-slot ceiling,
//     RSS at the horizon <= 1.5x RSS after the fill, and the sustained
//     >= 100k concurrency floor, all enforced at full scale.
//
// Results land in BENCH_PR14.json (override with --out <path>); the JSON
// schema is documented in docs/PERFORMANCE.md. REPRO_SLOTS in the
// environment shrinks every loop for smoke runs. The paper-invariant
// validator must stay at its compiled-out-of-the-hot-path default here: the
// gate pins the zero-alloc slot path, and validation is not part of it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include "baselines/factory.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/ema.hpp"
#include "gateway/framework.hpp"
#include "net/base_station.hpp"
#include "session/service_campaign.hpp"
#include "sim/campaign.hpp"
#include "sim/distrib.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"
#include "sim/trace_store.hpp"
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
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }

namespace jstream {
namespace {

using Clock = std::chrono::steady_clock;

/// Times `iters` calls of `body`, returning mean ns per call.
template <typename Fn>
double time_ns_per_iter(std::int64_t iters, Fn&& body) {
  const auto start = Clock::now();
  for (std::int64_t i = 0; i < iters; ++i) body();
  const auto stop = Clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         as_double(iters);
}

std::int64_t repro_slots() {
  const char* env = std::getenv("REPRO_SLOTS");
  if (env == nullptr) return 0;
  const long long v = std::atoll(env);
  return v > 0 ? v : 0;
}

// ---------------------------------------------------------------------------
// Solver microbench: production solver vs the reference DP.
// ---------------------------------------------------------------------------

struct SolverInstance {
  EmaSlotCosts costs;
  std::vector<std::int64_t> caps;
  std::int64_t capacity = 0;
};

SolverInstance make_solver_instance(std::size_t users, std::int64_t capacity,
                                    std::int64_t max_cap, std::uint64_t seed) {
  SolverInstance inst;
  Rng rng(seed);
  inst.costs.idle_cost.resize(users);
  inst.costs.active_base.resize(users);
  inst.costs.slope.resize(users);
  inst.caps.resize(users);
  for (std::size_t i = 0; i < users; ++i) {
    // Cost regimes of a loaded EMA slot: tail-scale idle costs, slopes on
    // both sides of zero (queue pressure flips the sign), heterogeneous caps.
    inst.costs.idle_cost[i] = rng.uniform(0.0, 5.0);
    inst.costs.active_base[i] = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : rng.uniform(0.0, 2.0);
    inst.costs.slope[i] = rng.uniform(-1.0, 1.0);
    inst.caps[i] = rng.uniform_int(1, max_cap);
  }
  inst.capacity = capacity;
  return inst;
}

double allocation_cost(const EmaSlotCosts& costs, const Allocation& alloc) {
  double sum = 0.0;
  for (std::size_t i = 0; i < alloc.units.size(); ++i) {
    sum += ema_cost(costs, i, alloc.units[i]);
  }
  return sum;
}

struct SolverResult {
  std::size_t users = 0;
  std::int64_t capacity_units = 0;
  std::int64_t fast_iters = 0;
  std::int64_t reference_iters = 0;
  double ns_per_solve = 0.0;  ///< production solver
  double reference_ns_per_solve = 0.0;
  double speedup = 0.0;       ///< production solver vs reference (gated)
};

SolverResult bench_solver(std::size_t users, std::int64_t capacity,
                          std::int64_t fast_iters, std::int64_t ref_iters) {
  SolverResult result;
  result.users = users;
  result.capacity_units = capacity;
  result.fast_iters = fast_iters;
  result.reference_iters = ref_iters;

  const SolverInstance inst = make_solver_instance(users, capacity, 40, 0xbeef + users);
  EmaDpWorkspace ws;
  Allocation out;

  // Warm both paths and check they agree before trusting the timings.
  solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, out);
  const double fast_cost = allocation_cost(inst.costs, out);
  const Allocation ref = solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
  const double ref_cost = allocation_cost(inst.costs, ref);
  require(std::abs(fast_cost - ref_cost) < 1e-9,
          "solvers disagree; timings are meaningless");

  result.ns_per_solve = time_ns_per_iter(fast_iters, [&] {
    solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, out);
  });
  result.reference_ns_per_solve = time_ns_per_iter(ref_iters, [&] {
    const Allocation r = solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
    if (r.units.empty()) std::abort();  // keep the call observable
  });
  result.speedup = result.reference_ns_per_solve / result.ns_per_solve;
  return result;
}

// ---------------------------------------------------------------------------
// Slot-path matrix: end-to-end run_slot cost and allocation counts.
// ---------------------------------------------------------------------------

struct SlotCase {
  std::string scheduler;
  std::size_t users = 0;
  std::int64_t measured_slots = 0;
  double ns_per_slot = 0.0;
  double ns_per_slot_ci95 = 0.0;    ///< Student-t 95% half-width of the mean
  double ns_per_slot_traced = 0.0;  ///< same slots against the cached substrate
  double ns_per_solve = 0.0;
  double allocs_per_slot = 0.0;
};

/// Times `count` calls of `body` individually, filling `samples_ns`.
template <typename Fn>
void sample_ns(std::int64_t count, std::vector<double>& samples_ns, Fn&& body) {
  samples_ns.clear();
  samples_ns.reserve(checked_size(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const auto start = Clock::now();
    body();
    const auto stop = Clock::now();
    samples_ns.push_back(std::chrono::duration<double, std::nano>(stop - start).count());
  }
}

double ci95_halfwidth(const Summary& s) {
  if (s.count < 2) return 0.0;
  return student_t_975(s.count - 1) * s.stddev /
         std::sqrt(as_double(s.count));
}

SlotCase bench_slot_path(const std::string& scheduler_name, std::size_t users,
                         std::int64_t warmup, std::int64_t measured,
                         std::int64_t solve_iters) {
  SlotCase result;
  result.scheduler = scheduler_name;
  result.users = users;
  result.measured_slots = measured;

  ScenarioConfig scenario = paper_scenario(users, 42);
  scenario.capacity_kbps = 500.0 * as_double(users);
  std::vector<UserEndpoint> endpoints = build_endpoints(scenario);
  const BaseStation bs(capacity_profile(scenario));
  SchedulerOptions options;
  options.ema.v_weight = 0.05;
  Framework framework(InfoCollector(scenario.slot, scenario.link, scenario.radio),
                      make_scheduler(scheduler_name, options),
                      SchedulingMode::kEnergyMinimization, users);

  for (std::int64_t slot = 0; slot < warmup; ++slot) {
    (void)framework.run_slot(slot, endpoints, bs);
  }

  // Per-slot samples (pre-reserved so the sampling itself stays off the
  // allocation counter), then mean + 95% CI of the mean.
  std::vector<double> samples;
  samples.reserve(checked_size(measured));
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  std::int64_t slot_cursor = warmup;
  sample_ns(measured, samples, [&] {
    (void)framework.run_slot(slot_cursor, endpoints, bs);
    ++slot_cursor;
  });
  const std::uint64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);
  const Summary summary = summarize(samples);
  result.ns_per_slot = summary.mean;
  result.ns_per_slot_ci95 = ci95_halfwidth(summary);
  result.allocs_per_slot = as_double(allocs_after - allocs_before) /
                           as_double(measured);

  // Same slots against the campaign engine's cached substrate: fresh
  // endpoints reading signal/throughput/energy out of the precomputed
  // slot-major matrices instead of evaluating the models per slot. The trace
  // horizon is trimmed to the measured window so generation stays cheap.
  ScenarioConfig traced_scenario = scenario;
  traced_scenario.max_slots = warmup + measured;
  const std::shared_ptr<const SignalTraceSet> trace =
      generate_signal_trace_set(traced_scenario);
  std::vector<UserEndpoint> traced_endpoints = build_endpoints(scenario);
  for (std::size_t i = 0; i < traced_endpoints.size(); ++i) {
    traced_endpoints[i].attach_trace(trace.get(), i);
  }
  Framework traced(InfoCollector(scenario.slot, scenario.link, scenario.radio),
                   make_scheduler(scheduler_name, options),
                   SchedulingMode::kEnergyMinimization, users);
  for (std::int64_t slot = 0; slot < warmup; ++slot) {
    (void)traced.run_slot(slot, traced_endpoints, bs);
  }
  result.ns_per_slot_traced = time_ns_per_iter(measured, [&, slot = warmup]() mutable {
    (void)traced.run_slot(slot, traced_endpoints, bs);
    ++slot;
  });

  // Decision cost alone, on the warm steady-state snapshot.
  Allocation decision;
  Scheduler& scheduler = framework.scheduler();
  const SlotContext& ctx = framework.last_context();
  scheduler.allocate_into(ctx, decision);
  result.ns_per_solve =
      time_ns_per_iter(solve_iters, [&] { scheduler.allocate_into(ctx, decision); });
  return result;
}

// ---------------------------------------------------------------------------
// Campaign gate: scheduler x seed grid, cached trace vs per-cell regeneration.
// ---------------------------------------------------------------------------

struct CampaignResult {
  std::size_t users = 0;
  std::size_t schedulers = 0;
  std::size_t replications = 0;
  std::int64_t horizon_slots = 0;
  double uncached_wall_s = 0.0;
  double cached_wall_s = 0.0;
  double speedup = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

CampaignResult bench_campaign(std::int64_t horizon) {
  // Every factory scheduler with paper-scale cost (the exact EMA DP at
  // N = 200 is benched separately in the slot matrix; ema-fast stands in for
  // it here so the grid stays minutes, not hours).
  const std::vector<std::string> names{"default", "throttling", "onoff",
                                       "salsa",   "estreamer",  "rtma",
                                       "ema-fast"};
  SchedulerOptions options;
  options.ema.v_weight = 0.05;
  std::vector<CampaignSeries> series;
  for (const std::string& name : names) series.push_back({name, name, options});

  ScenarioConfig base = paper_scenario(200, 42);
  base.max_slots = horizon;
  base.capacity_kbps = 500.0 * as_double(base.users);
  // Shorter sessions than the figure scenarios (not part of the trace key, so
  // generation cost is untouched): the gate measures how well the grid
  // amortizes trace generation, and early-stopped sims keep the generation
  // share of an uncached cell at its realistic full-horizon cost.
  base.video_min_mb = 100.0;
  base.video_max_mb = 200.0;
  const std::vector<ExperimentSpec> specs = make_campaign_grid(base, series, 8);

  CampaignResult result;
  result.users = base.users;
  result.schedulers = names.size();
  result.replications = 8;
  result.horizon_slots = horizon;

  CampaignOptions uncached_options;
  uncached_options.use_trace_cache = false;
  auto start = Clock::now();
  const std::vector<RunMetrics> uncached = run_campaign(specs, uncached_options);
  result.uncached_wall_s = seconds_since(start);

  TraceCache cache;
  CampaignOptions cached_options;
  cached_options.cache = &cache;
  start = Clock::now();
  const std::vector<RunMetrics> cached = run_campaign(specs, cached_options);
  result.cached_wall_s = seconds_since(start);
  result.cache_hits = cache.hits();
  result.cache_misses = cache.misses();
  result.speedup =
      result.cached_wall_s > 0.0 ? result.uncached_wall_s / result.cached_wall_s : 0.0;

  // The differential guarantee the cache rests on: every cell bit-identical.
  require(cached.size() == uncached.size(), "campaign grids differ in size");
  for (std::size_t i = 0; i < cached.size(); ++i) {
    require(cached[i].slots_run == uncached[i].slots_run &&
                cached[i].total_energy_mj() == uncached[i].total_energy_mj() &&
                cached[i].total_rebuffer_s() == uncached[i].total_rebuffer_s(),
            "campaign cached cell diverged from per-run regeneration");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Distributed gate: 4-shard multi-process campaign vs the serial engine.
// ---------------------------------------------------------------------------

struct DistribResult {
  std::size_t processes = 0;
  std::size_t cells = 0;
  double serial_wall_s = 0.0;
  double distributed_wall_s = 0.0;
  double speedup = 0.0;
  std::uint64_t serial_digest = 0;
  std::uint64_t merged_digest = 0;
  bool bit_identical = false;
};

DistribResult bench_distrib(std::int64_t horizon) {
  // Same workload shape as the campaign gate (every paper-scale factory
  // scheduler, N = 200, sessions outliving the horizon) at 4 seeds, so the
  // 4-shard split puts one full rep-major seed group in each worker. Both
  // sides get their own fresh cache: the serial one lives in this process,
  // the distributed one is inherited empty across fork() so every worker
  // generates exactly its shard's substrate.
  const std::vector<std::string> names{"default", "throttling", "onoff",
                                       "salsa",   "estreamer",  "rtma",
                                       "ema-fast"};
  SchedulerOptions options;
  options.ema.v_weight = 0.05;
  std::vector<CampaignSeries> series;
  for (const std::string& name : names) series.push_back({name, name, options});

  ScenarioConfig base = paper_scenario(200, 42);
  base.max_slots = horizon;
  base.capacity_kbps = 500.0 * as_double(base.users);
  base.video_min_mb = 100.0;
  base.video_max_mb = 200.0;
  const std::vector<ExperimentSpec> specs = make_campaign_grid(base, series, 4);

  DistribResult result;
  result.processes = 4;
  result.cells = specs.size();

  TraceCache serial_cache;
  CampaignOptions campaign;
  campaign.cache = &serial_cache;
  auto start = Clock::now();
  const std::vector<RunMetrics> serial = run_campaign(specs, campaign);
  result.serial_wall_s = seconds_since(start);

  TraceCache shard_cache;
  DistribOptions distrib;
  distrib.processes = result.processes;
  distrib.campaign = campaign;
  distrib.campaign.cache = &shard_cache;
  start = Clock::now();
  const std::vector<RunMetrics> merged = run_campaign_distributed(specs, distrib);
  result.distributed_wall_s = seconds_since(start);
  result.speedup = result.distributed_wall_s > 0.0
                       ? result.serial_wall_s / result.distributed_wall_s
                       : 0.0;

  result.serial_digest = metrics_digest(std::span<const RunMetrics>(serial));
  result.merged_digest = metrics_digest(std::span<const RunMetrics>(merged));
  result.bit_identical = result.serial_digest == result.merged_digest;
  return result;
}

// ---------------------------------------------------------------------------
// Disk-warm gate: persistent trace tier vs cold regeneration.
// ---------------------------------------------------------------------------

struct DiskWarmResult {
  std::size_t users = 0;
  std::size_t seeds = 0;
  std::size_t cells = 0;
  std::int64_t horizon_slots = 0;
  double cold_wall_s = 0.0;
  double warm_wall_s = 0.0;
  double speedup = 0.0;
  std::uint64_t cold_generations = 0;
  std::uint64_t warm_generations = 0;
  std::uint64_t warm_promotions = 0;
  bool bit_identical = false;
};

DiskWarmResult bench_disk_warm(std::int64_t horizon) {
  // Trace-bound grid: short sessions early-stop the sims, so wall time is
  // dominated by producing the channel substrate — exactly the cost the
  // persistent tier amortizes across campaign invocations. The trace horizon
  // stays at the full gate length (max_slots is part of the trace key), so
  // the cold pass carries its realistic generation cost.
  const std::vector<CampaignSeries> series = {{"default", "default", {}},
                                              {"ema-fast", "ema-fast", {}}};
  ScenarioConfig base = paper_scenario(200, 42);
  base.max_slots = horizon;
  base.capacity_kbps = 500.0 * as_double(base.users);
  base.video_min_mb = 2.0;
  base.video_max_mb = 4.0;
  constexpr std::size_t kSeeds = 8;
  const std::vector<ExperimentSpec> specs = make_campaign_grid(base, series, kSeeds);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("jstream_perf_gate_store_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  DiskWarmResult result;
  result.users = base.users;
  result.seeds = kSeeds;
  result.cells = specs.size();
  result.horizon_slots = horizon;
  {
    TraceStore store(dir);
    TraceCache cold_cache;
    CampaignOptions cold;
    cold.cache = &cold_cache;
    cold.store = &store;
    auto start = Clock::now();
    const std::vector<RunMetrics> cold_results = run_campaign(specs, cold);
    result.cold_wall_s = seconds_since(start);
    result.cold_generations = cold_cache.generations();

    // Disk-warm rerun: a fresh cache over the now-populated store. Every
    // miss must promote from the mmap tier; a single regeneration means the
    // fingerprint keying or the end-of-run flush broke.
    TraceCache warm_cache;
    CampaignOptions warm = cold;
    warm.cache = &warm_cache;
    start = Clock::now();
    const std::vector<RunMetrics> warm_results = run_campaign(specs, warm);
    result.warm_wall_s = seconds_since(start);
    result.warm_generations = warm_cache.generations();
    result.warm_promotions = warm_cache.promotions();
    result.speedup =
        result.warm_wall_s > 0.0 ? result.cold_wall_s / result.warm_wall_s : 0.0;

    result.bit_identical = warm_results.size() == cold_results.size();
    for (std::size_t i = 0; result.bit_identical && i < warm_results.size(); ++i) {
      result.bit_identical =
          metrics_digest(warm_results[i]) == metrics_digest(cold_results[i]);
    }
  }
  std::filesystem::remove_all(dir);
  return result;
}

// ---------------------------------------------------------------------------
// Service-scale gate: the 110k-population trace-less run, promoted from
// bench_service_steady part 3 (which now only reports these numbers).
// ---------------------------------------------------------------------------

/// Resident set size in KB from /proc/self/status (0 when unavailable).
long read_vmrss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(status);
  return kb;
}

struct ServiceScaleResult {
  std::size_t population = 0;
  std::int64_t horizon_slots = 0;
  std::int64_t slots_run = 0;
  double ns_per_slot = 0.0;
  double ns_per_user_slot = 0.0;
  double mean_concurrency = 0.0;
  std::size_t peak_concurrency = 0;
  std::size_t live_at_end = 0;
  long rss_fill_kb = 0;
  long rss_end_kb = 0;
};

ServiceScaleResult bench_service_scale(bool full, std::int64_t horizon) {
  const std::size_t population = full ? 110000 : 2000;
  const std::int64_t fill_slots = std::min<std::int64_t>(40, horizon - 1);

  ScenarioConfig cell = paper_scenario(population, 44);
  cell.max_slots = horizon;
  cell.video_min_mb = 100.0;  // sessions outlive the horizon: pure steady load
  cell.video_max_mb = 200.0;

  ServiceConfig config;
  config.cell = cell;
  config.arrivals.kind = ArrivalKind::kPoisson;
  config.arrivals.rate_per_slot = as_double(population) / 30.0;
  config.warmup_slots = std::min<std::int64_t>(fill_slots + 20, horizon - 1);

  // Trace-less on purpose: a 110k x 300 substrate would dwarf the gateway
  // state this gate exists to bound.
  ServiceSimulator simulator(config, make_scheduler("default"));
  ServiceScaleResult result;
  result.population = population;
  result.horizon_slots = horizon;
  const auto start = Clock::now();
  while (simulator.step()) {
    if (simulator.slot() == fill_slots) result.rss_fill_kb = read_vmrss_kb();
  }
  const double wall_ns = seconds_since(start) * 1e9;
  result.live_at_end = simulator.active_sessions();
  const ServiceResult run = simulator.finish();
  result.rss_end_kb = read_vmrss_kb();
  if (result.rss_fill_kb == 0) result.rss_fill_kb = result.rss_end_kb;

  result.slots_run = run.service.slots_run;
  result.ns_per_slot = wall_ns / as_double(run.service.slots_run);
  result.ns_per_user_slot = result.ns_per_slot / as_double(population);
  result.mean_concurrency = run.service.mean_concurrency();
  result.peak_concurrency = run.service.peak_concurrency;
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------

int run(int argc, const char* const* argv) {
  std::string out_path = "BENCH_PR14.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: bench_perf_gate [--out <path>]\n");
      return 0;
    }
  }

  const std::int64_t repro = repro_slots();
  const auto clamp = [&](std::int64_t n) { return repro > 0 ? std::min(n, repro) : n; };

  // Solver gate: paper scale (N = 40, M = 250 >= 200), the campaign scale,
  // and the tentpole scale (N = 1000, M = 5000).
  std::printf("solver microbench (production solver vs reference DP)\n");
  std::vector<SolverResult> solver_results;
  solver_results.push_back(bench_solver(40, 250, clamp(2000), clamp(200)));
  solver_results.push_back(bench_solver(200, 1000, clamp(200), clamp(20)));
  solver_results.push_back(bench_solver(1000, 5000, clamp(50), clamp(3)));
  for (const SolverResult& r : solver_results) {
    std::printf("  N=%-4zu M=%-5lld production %9.0f ns   reference %12.0f ns   %7.1fx\n",
                r.users, static_cast<long long>(r.capacity_units), r.ns_per_solve,
                r.reference_ns_per_solve, r.speedup);
  }

  constexpr double kMinSpeedup = 5.0;
  const bool solver_gate_pass = solver_results.front().speedup >= kMinSpeedup;

  std::printf("slot-path matrix (paper scenario, capacity 500 KB/s per user)\n");
  std::vector<SlotCase> slot_cases;
  const std::vector<std::size_t> populations{40, 200, 1000};
  const std::vector<std::string> schedulers{"default", "rtma", "ema-fast", "ema"};
  double ema_1000_ns_per_slot = -1.0;
  double max_allocs_per_slot = 0.0;
  for (const std::size_t users : populations) {
    // Measured windows sized so every row — N = 1000 included — reports a
    // meaningful 95% CI while the whole matrix stays minutes.
    const std::int64_t measured = clamp(users == 40 ? 200 : users == 200 ? 120 : 160);
    const std::int64_t warmup = clamp(20);
    const std::int64_t solve_iters = clamp(users == 1000 ? 20 : 50);
    for (const std::string& name : schedulers) {
      slot_cases.push_back(bench_slot_path(name, users, warmup, measured, solve_iters));
      const SlotCase& c = slot_cases.back();
      if (name == "ema" && users == 1000) ema_1000_ns_per_slot = c.ns_per_slot;
      max_allocs_per_slot = std::max(max_allocs_per_slot, c.allocs_per_slot);
      std::printf(
          "  %-9s N=%-4zu %11.0f +-%8.0f ns/slot %11.0f ns/slot(traced) %11.0f "
          "ns/solve %7.2f allocs/slot\n",
          c.scheduler.c_str(), c.users, c.ns_per_slot, c.ns_per_slot_ci95,
          c.ns_per_slot_traced, c.ns_per_solve, c.allocs_per_slot);
    }
  }

  // Tentpole gate: exact EMA must fit the paper's 1 s slot with three orders
  // of margin at N = 1000 — under 1 ms per end-to-end slot.
  constexpr double kMaxEmaNsPerSlot = 1e6;
  const bool ema_gate_enforced = repro == 0;
  const bool ema_gate_pass =
      !ema_gate_enforced ||
      (ema_1000_ns_per_slot > 0.0 && ema_1000_ns_per_slot < kMaxEmaNsPerSlot);

  // Allocation gate: the steady-state slot path allocates nothing. Counts are
  // deterministic, so this gate is enforced at every scale.
  const bool alloc_gate_pass = max_allocs_per_slot == 0.0;

  // Campaign gate: amortizing trace generation across the grid must pay off.
  // REPRO_SLOTS shrinks the horizon so far that the sims dominate and the
  // ratio is meaningless; the >= 3x bar is enforced only at full scale.
  constexpr double kMinCampaignSpeedup = 3.0;
  std::printf("campaign grid (7 schedulers x 8 seeds, N=200)\n");
  const CampaignResult campaign = bench_campaign(clamp(10000));
  std::printf(
      "  uncached %7.2f s   cached %7.2f s   speedup %5.2fx   cache %llu hits / %llu misses\n",
      campaign.uncached_wall_s, campaign.cached_wall_s, campaign.speedup,
      static_cast<unsigned long long>(campaign.cache_hits),
      static_cast<unsigned long long>(campaign.cache_misses));
  const bool campaign_enforced = repro == 0;
  const bool campaign_pass =
      !campaign_enforced || campaign.speedup >= kMinCampaignSpeedup;

  // Distributed gate: merged shard results must hash to the serial digest.
  // Bit identity is timing-independent, so this gate is enforced at every
  // scale; only the wall-clock ratio is informational.
  std::printf("distributed campaign (7 schedulers x 4 seeds, N=200, 4 shards)\n");
  const DistribResult distrib = bench_distrib(clamp(10000));
  std::printf(
      "  serial %7.2f s   4-shard %7.2f s   speedup %5.2fx   digest %016llx %s\n",
      distrib.serial_wall_s, distrib.distributed_wall_s, distrib.speedup,
      static_cast<unsigned long long>(distrib.merged_digest),
      distrib.bit_identical ? "== serial" : "!= serial (MISMATCH)");
  const bool distrib_pass = distrib.bit_identical;

  // Disk-warm gate: a fresh cache over a warm store must promote every miss
  // (enforced always) and beat cold regeneration >= 3x at the full horizon.
  constexpr double kMinDiskWarmSpeedup = 3.0;
  std::printf("persistent trace tier (2 schedulers x 8 seeds, N=200, trace-bound)\n");
  const DiskWarmResult disk = bench_disk_warm(clamp(10000));
  std::printf(
      "  cold %7.2f s (%llu generations)   warm %7.2f s (%llu generations, "
      "%llu promotions)   speedup %5.2fx\n",
      disk.cold_wall_s, static_cast<unsigned long long>(disk.cold_generations),
      disk.warm_wall_s, static_cast<unsigned long long>(disk.warm_generations),
      static_cast<unsigned long long>(disk.warm_promotions), disk.speedup);
  const bool disk_enforced = repro == 0;
  const bool disk_pass = disk.warm_generations == 0 && disk.bit_identical &&
                         (!disk_enforced || disk.speedup >= kMinDiskWarmSpeedup);

  // Service-scale gate, promoted from bench_service_steady part 3.
  constexpr double kMaxServiceNsPerUserSlot = 1000.0;
  constexpr double kMaxServiceRssRatio = 1.5;
  constexpr double kMinServiceConcurrency = 100000.0;
  const bool service_enforced = repro == 0;
  std::printf("service scale (trace-less Poisson fill, default scheduler)\n");
  const ServiceScaleResult service =
      bench_service_scale(service_enforced, clamp(300));
  std::printf(
      "  %zu population slots, %lld slots: mean concurrency %.0f, peak %zu, "
      "%zu still streaming; %.0f ns/slot (%.1f ns/user-slot); RSS %.1f MB "
      "after fill, %.1f MB at end\n",
      service.population, static_cast<long long>(service.slots_run),
      service.mean_concurrency, service.peak_concurrency, service.live_at_end,
      service.ns_per_slot, service.ns_per_user_slot,
      as_double(service.rss_fill_kb) / 1000.0,
      as_double(service.rss_end_kb) / 1000.0);
  const bool service_rss_ok =
      service.rss_fill_kb <= 0 || service.rss_end_kb <= 0 ||
      as_double(service.rss_end_kb) <=
          kMaxServiceRssRatio * as_double(service.rss_fill_kb);
  const bool service_pass =
      !service_enforced ||
      (service_rss_ok && service.ns_per_user_slot < kMaxServiceNsPerUserSlot &&
       as_double(service.live_at_end) >= kMinServiceConcurrency &&
       service.mean_concurrency >= kMinServiceConcurrency);

  const auto hex_digest = [](std::uint64_t digest) {
    char buffer[19];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return std::string(buffer);
  };

  const auto emit_slot_case = [](std::ofstream& json, const SlotCase& c) {
    json << "    {\"scheduler\": \"" << c.scheduler << "\", \"users\": " << c.users
         << ", \"measured_slots\": " << c.measured_slots
         << ", \"ns_per_slot\": " << c.ns_per_slot
         << ", \"ns_per_slot_ci95\": " << c.ns_per_slot_ci95
         << ", \"ns_per_slot_traced\": " << c.ns_per_slot_traced
         << ", \"ns_per_solve\": " << c.ns_per_solve
         << ", \"allocs_per_slot\": " << c.allocs_per_slot << "}";
  };

  std::ofstream json(out_path);
  require(json.good(), "cannot open perf-gate output file");
  json << "{\n";
  json << "  \"schema\": \"jstream-perf-gate-v5\",\n";
  json << "  \"workload\": \"paper_scenario(users, seed=42), capacity 500 KB/s per user\",\n";
  json << "  \"gate\": {\"metric\": \"solver[0].speedup_vs_reference\", \"min_speedup\": "
       << kMinSpeedup << ", \"pass\": " << (solver_gate_pass ? "true" : "false") << "},\n";
  json << "  \"ema_scale_gate\": {\"metric\": \"slot_path[ema,N=1000].ns_per_slot\", "
       << "\"max_ns_per_slot\": " << kMaxEmaNsPerSlot
       << ", \"measured_ns_per_slot\": " << ema_1000_ns_per_slot
       << ", \"enforced\": " << (ema_gate_enforced ? "true" : "false")
       << ", \"pass\": " << (ema_gate_pass ? "true" : "false") << "},\n";
  json << "  \"alloc_gate\": {\"metric\": \"max(slot_path[*].allocs_per_slot)\", "
       << "\"max_allocs_per_slot\": 0"
       << ", \"measured_allocs_per_slot\": " << max_allocs_per_slot
       << ", \"enforced\": true, \"pass\": " << (alloc_gate_pass ? "true" : "false")
       << "},\n";
  json << "  \"campaign_gate\": {\"metric\": \"campaign.speedup_cached_vs_uncached\", "
       << "\"min_speedup\": " << kMinCampaignSpeedup
       << ", \"enforced\": " << (campaign_enforced ? "true" : "false")
       << ", \"pass\": " << (campaign_pass ? "true" : "false") << "},\n";
  json << "  \"distrib_gate\": {\"metric\": \"distrib.merged_digest == distrib.serial_digest\", "
       << "\"processes\": " << distrib.processes
       << ", \"cells\": " << distrib.cells
       << ", \"serial_wall_s\": " << distrib.serial_wall_s
       << ", \"distributed_wall_s\": " << distrib.distributed_wall_s
       << ", \"speedup_distributed_vs_serial\": " << distrib.speedup
       << ", \"serial_digest\": \"" << hex_digest(distrib.serial_digest)
       << "\", \"merged_digest\": \"" << hex_digest(distrib.merged_digest)
       << "\", \"enforced\": true, \"pass\": "
       << (distrib_pass ? "true" : "false") << "},\n";
  json << "  \"disk_warm_gate\": {\"metric\": \"disk_warm.speedup_warm_vs_cold\", "
       << "\"min_speedup\": " << kMinDiskWarmSpeedup
       << ", \"users\": " << disk.users << ", \"seeds\": " << disk.seeds
       << ", \"cells\": " << disk.cells
       << ", \"horizon_slots\": " << disk.horizon_slots
       << ", \"cold_wall_s\": " << disk.cold_wall_s
       << ", \"warm_wall_s\": " << disk.warm_wall_s
       << ", \"speedup_warm_vs_cold\": " << disk.speedup
       << ", \"cold_generations\": " << disk.cold_generations
       << ", \"warm_generations\": " << disk.warm_generations
       << ", \"warm_promotions\": " << disk.warm_promotions
       << ", \"bit_identical\": " << (disk.bit_identical ? "true" : "false")
       << ", \"enforced\": " << (disk_enforced ? "true" : "false")
       << ", \"pass\": " << (disk_pass ? "true" : "false") << "},\n";
  json << "  \"service_scale_gate\": {\"metric\": \"service_scale.ns_per_user_slot\", "
       << "\"max_ns_per_user_slot\": " << kMaxServiceNsPerUserSlot
       << ", \"max_rss_ratio\": " << kMaxServiceRssRatio
       << ", \"min_concurrency\": " << kMinServiceConcurrency
       << ", \"population\": " << service.population
       << ", \"horizon_slots\": " << service.horizon_slots
       << ", \"slots_run\": " << service.slots_run
       << ", \"ns_per_slot\": " << service.ns_per_slot
       << ", \"ns_per_user_slot\": " << service.ns_per_user_slot
       << ", \"mean_concurrency\": " << service.mean_concurrency
       << ", \"peak_concurrency\": " << service.peak_concurrency
       << ", \"live_at_end\": " << service.live_at_end
       << ", \"rss_fill_kb\": " << service.rss_fill_kb
       << ", \"rss_end_kb\": " << service.rss_end_kb
       << ", \"enforced\": " << (service_enforced ? "true" : "false")
       << ", \"pass\": " << (service_pass ? "true" : "false") << "},\n";
  json << "  \"campaign\": {\"users\": " << campaign.users
       << ", \"schedulers\": " << campaign.schedulers
       << ", \"replications\": " << campaign.replications
       << ", \"horizon_slots\": " << campaign.horizon_slots
       << ", \"uncached_wall_s\": " << campaign.uncached_wall_s
       << ", \"cached_wall_s\": " << campaign.cached_wall_s
       << ", \"speedup_cached_vs_uncached\": " << campaign.speedup
       << ", \"cache_hits\": " << campaign.cache_hits
       << ", \"cache_misses\": " << campaign.cache_misses
       << ", \"bit_identical\": true},\n";
  json << "  \"solver\": [\n";
  for (std::size_t i = 0; i < solver_results.size(); ++i) {
    const SolverResult& r = solver_results[i];
    json << "    {\"users\": " << r.users << ", \"capacity_units\": " << r.capacity_units
         << ", \"fast_iters\": " << r.fast_iters
         << ", \"reference_iters\": " << r.reference_iters
         << ", \"ns_per_solve\": " << r.ns_per_solve
         << ", \"reference_ns_per_solve\": " << r.reference_ns_per_solve
         << ", \"speedup_vs_reference\": " << r.speedup << "}"
         << (i + 1 < solver_results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"slot_path\": [\n";
  for (std::size_t i = 0; i < slot_cases.size(); ++i) {
    emit_slot_case(json, slot_cases[i]);
    json << (i + 1 < slot_cases.size() ? "," : "") << "\n";
  }
  json << "  ]\n";
  json << "}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!solver_gate_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: EMA-DP speedup %.1fx < %.1fx at N=40, M=250\n",
                 solver_results.front().speedup, kMinSpeedup);
    return 1;
  }
  if (!ema_gate_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: exact EMA %.0f ns/slot >= %.0f ns/slot at N=1000\n",
                 ema_1000_ns_per_slot, kMaxEmaNsPerSlot);
    return 1;
  }
  if (!alloc_gate_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: a slot-path row allocates %.2f times per slot "
                 "in steady state (must be 0)\n",
                 max_allocs_per_slot);
    return 1;
  }
  if (!campaign_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: campaign cached speedup %.2fx < %.1fx on the "
                 "7x8 grid at N=200\n",
                 campaign.speedup, kMinCampaignSpeedup);
    return 1;
  }
  if (!distrib_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: 4-shard merged digest %016llx != serial "
                 "digest %016llx\n",
                 static_cast<unsigned long long>(distrib.merged_digest),
                 static_cast<unsigned long long>(distrib.serial_digest));
    return 1;
  }
  if (!disk_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: disk-warm rerun (%llu generations, %s, "
                 "%.2fx vs cold) missed the warm-store bar\n",
                 static_cast<unsigned long long>(disk.warm_generations),
                 disk.bit_identical ? "bit-identical" : "DIVERGED",
                 disk.speedup);
    return 1;
  }
  if (!service_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: service scale (%.1f ns/user-slot, RSS %ld "
                 "-> %ld KB, live %zu, mean %.0f) missed a bound\n",
                 service.ns_per_user_slot, service.rss_fill_kb,
                 service.rss_end_kb, service.live_at_end,
                 service.mean_concurrency);
    return 1;
  }
  std::printf(
      "perf gate passed (solver %.1fx >= %.1fx; ema N=1000 %s; 0 allocs/slot; "
      "campaign %.2fx%s; "
      "4-shard bit-identical; disk-warm %.2fx%s; service scale %s)\n",
      solver_results.front().speedup, kMinSpeedup,
      ema_gate_enforced ? "< 1 ms/slot" : "informational under REPRO_SLOTS",
      campaign.speedup,
      campaign_enforced ? " >= 3.0x" : ", informational under REPRO_SLOTS",
      disk.speedup,
      disk_enforced ? " >= 3.0x" : ", ratio informational under REPRO_SLOTS",
      service_enforced ? "within bounds" : "informational under REPRO_SLOTS");
  return 0;
}

}  // namespace jstream

int main(int argc, char** argv) {
  try {
    return jstream::run(argc, argv);
  } catch (const jstream::Error& e) {
    std::fprintf(stderr, "bench_perf_gate: %s\n", e.what());
    return 2;
  }
}
