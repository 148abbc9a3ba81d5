// Perf regression gate for the slot engine (see docs/PERFORMANCE.md).
//
// Eight measurement families, all on pinned deterministic workloads:
//
//  1. Solver microbench: the production EMA solver against the paper-literal
//     O(N*M*phi_max) reference on the same instances, timed in alternating
//     short blocks. The gate requires the production solver >= 5x over the
//     reference at N = 40 users with M >= 200 capacity units (the paper's
//     evaluation scale) on a mixed-cost instance. Eq. 5 and continuous-tail
//     instances at N = 40 and N = 200 report each DP row kernel (valley
//     rows, deque rows) with the rows it took, ungated.
//  2. Slot-path matrix: end-to-end Framework::run_slot cost (mean ns/slot
//     with a 95% Student-t confidence half-width, both the per-run
//     SignalModel path and the campaign engine's cached-trace path), the
//     scheduler decision alone (ns/solve), and heap allocations per slot for
//     N in {40, 200, 1000} x {default, rtma, ema-fast, ema}, plus exact EMA
//     at N = 40 under the fault sweep's "high" level (the fault hook's
//     degrade and reconcile on the slot path). The N = 200 rows run in
//     alternating blocks and report the block median with a distribution-
//     free 95% interval. Two gates live here: exact EMA at N = 1000 must run
//     under 1 ms/slot, and every row must allocate nothing in its measured
//     window. This binary replaces the global operator new to count
//     allocations.
//  3. Campaign gate: a 7-scheduler x 8-seed grid at N = 200 over the full
//     10000-slot horizon, run with per-cell trace regeneration and through
//     a fresh shared trace cache in 4 alternating blocks. Every run must be
//     bit-identical to the first, and (at the full horizon; REPRO_SLOTS runs
//     report only) the cached mean wall time >= 3x faster. The row reports
//     the block times, the bytes of one cached trace (its signal matrix) and
//     the rows of each trace the cached grid filled: a cache miss's trace
//     fills on read, so its cells fill only the rows they reach, while the
//     uncached side still generates every cell's full horizon.
//  4. Pool scaling: the same workload shape at 4 seeds, run on one thread
//     and on a 4-thread pool, each against a fresh cache. Both grids must
//     hash (metrics_digest) to the same digest — enforced at every scale,
//     since determinism does not depend on timing. The wall-clock ratio is
//     reported for context only (it tracks core count, which CI does not
//     pin).
//  5. Service-scale gate: one trace-less 110k-population service run (the
//     numbers bench_service_steady part 3 reports): ns/user-slot ceiling,
//     RSS at the horizon <= 1.5x RSS after the fill, and the sustained
//     >= 100k concurrency floor, all enforced at full scale.
//  6. Telemetry cost: the N = 1000 exact-EMA slot path and the 4-thread
//     pool grid, each run with telemetry off and on in alternating blocks.
//     Both sides must digest equally (telemetry is observation-only),
//     enforced at every scale; the on/off time ratios are reported, not
//     gated, since this host's speed regimes would make a bound flake.
//  7. Trace generation: one N = 200 trace over the full horizon generated
//     from the main thread (users spread over the shared pool) and by the
//     serial public-API walk, in alternating blocks. Every parallel signal
//     matrix must equal the serial one byte for byte, enforced at every
//     scale; the wall times and their ratio are reported, not gated.
//  8. Fault campaign: the fault sweep's 7 schedulers x 3 faulting levels x
//     2 seeds at N = 40, through run_campaign (one shared fault schedule per
//     key) and through run_experiment with no schedule (one draw per cell),
//     in alternating blocks on 4 threads over one warm trace cache. Both
//     sides must digest equally and the shared side must draw exactly one
//     schedule per key, enforced at every scale; wall times are reported,
//     not gated.
//
// Results land in BENCH_PR30.json (override with --out <path>); the JSON
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
#include <fstream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.hpp"
#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/ema.hpp"
#include "gateway/framework.hpp"
#include "net/base_station.hpp"
#include "session/service.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_cache.hpp"
#include "telemetry/registry.hpp"
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

/// Times `iters` calls of `body`, returning the total ns.
template <typename Fn>
double time_ns(std::int64_t iters, Fn&& body) {
  const auto start = Clock::now();
  for (std::int64_t i = 0; i < iters; ++i) body();
  const auto stop = Clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count();
}

/// Times `iters` calls of `body`, returning mean ns per call.
template <typename Fn>
double time_ns_per_iter(std::int64_t iters, Fn&& body) {
  return time_ns(iters, body) / as_double(iters);
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

/// Which DP row kernel an instance exercises. Under Eq. 5 (active_base = 0)
/// every user's cost is convex in phi and every row is a valley row; a
/// continuous tail (active_base > idle) makes the first unit dearer than the
/// rest, so most rows fail the valley test and run the deque; the mixed
/// draw (half the users with a base) is the gated instance.
enum class CostModel { kMixed, kEq5, kContinuousTail };

const char* cost_model_name(CostModel model) {
  switch (model) {
    case CostModel::kMixed: return "mixed";
    case CostModel::kEq5: return "eq5";
    case CostModel::kContinuousTail: return "continuous-tail";
  }
  return "?";
}

SolverInstance make_solver_instance(std::size_t users, std::int64_t capacity,
                                    std::int64_t max_cap, std::uint64_t seed,
                                    CostModel model) {
  SolverInstance inst;
  Rng rng(seed);
  inst.costs.idle_cost.resize(users);
  inst.costs.active_base.resize(users);
  inst.costs.slope.resize(users);
  inst.caps.resize(users);
  for (std::size_t i = 0; i < users; ++i) {
    // Cost regimes of a loaded EMA slot: tail-scale idle costs, slopes on
    // both sides of zero (queue pressure flips the sign), heterogeneous caps.
    double& idle = inst.costs.idle_cost[i];
    double& base = inst.costs.active_base[i];
    idle = rng.uniform(0.0, 5.0);
    if (model == CostModel::kMixed) {
      base = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : rng.uniform(0.0, 2.0);
    } else if (model == CostModel::kEq5) {
      base = 0.0;
    } else {
      base = idle + rng.uniform(0.5, 2.0);
    }
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
  CostModel model = CostModel::kMixed;
  std::size_t users = 0;
  std::int64_t capacity_units = 0;
  std::int64_t fast_iters = 0;
  std::int64_t reference_iters = 0;
  double ns_per_solve = 0.0;  ///< production solver
  double reference_ns_per_solve = 0.0;
  double speedup = 0.0;       ///< production solver vs reference (solver[0] gated)
  std::int64_t dp_rows = 0;     ///< DP rows in one production solve
  std::int64_t deque_rows = 0;  ///< of which ran the deque (the rest are valley rows)
};

SolverResult bench_solver(std::size_t users, std::int64_t capacity,
                          std::int64_t fast_iters, std::int64_t ref_iters,
                          CostModel model = CostModel::kMixed) {
  SolverResult result;
  result.model = model;
  result.users = users;
  result.capacity_units = capacity;
  result.fast_iters = fast_iters;
  result.reference_iters = ref_iters;

  const SolverInstance inst =
      make_solver_instance(users, capacity, 40, 0xbeef + users, model);
  EmaDpWorkspace ws;
  Allocation out;

  // Warm both paths and check they agree before trusting the timings; the
  // warm solve also counts the rows each kernel took.
  solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, out);
  result.dp_rows = ws.dp_solves * checked_index(users);
  result.deque_rows = ws.deque_rows;
  const double fast_cost = allocation_cost(inst.costs, out);
  const Allocation ref = solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
  const double ref_cost = allocation_cost(inst.costs, ref);
  require(std::abs(fast_cost - ref_cost) < 1e-9,
          "solvers disagree; timings are meaningless");

  // Alternate short production and reference blocks and divide the totals:
  // the host can switch speed regimes mid-run, and two back-to-back blocks
  // would put such a switch between the numerator and the denominator.
  const std::int64_t blocks = std::min<std::int64_t>({10, fast_iters, ref_iters});
  const auto block_share = [blocks](std::int64_t iters, std::int64_t block) {
    return iters * (block + 1) / blocks - iters * block / blocks;
  };
  double fast_ns = 0.0;
  double reference_ns = 0.0;
  for (std::int64_t block = 0; block < blocks; ++block) {
    fast_ns += time_ns(block_share(fast_iters, block), [&] {
      solve_min_cost_dp(inst.costs, inst.caps, inst.capacity, ws, out);
    });
    reference_ns += time_ns(block_share(ref_iters, block), [&] {
      const Allocation r = solve_min_cost_dp_reference(inst.costs, inst.caps, inst.capacity);
      if (r.units.empty()) std::abort();  // keep the call observable
    });
  }
  result.ns_per_solve = fast_ns / as_double(fast_iters);
  result.reference_ns_per_solve = reference_ns / as_double(ref_iters);
  result.speedup = result.reference_ns_per_solve / result.ns_per_solve;
  return result;
}

// ---------------------------------------------------------------------------
// Slot-path matrix: end-to-end run_slot cost and allocation counts.
// ---------------------------------------------------------------------------

struct SlotCase {
  std::string scheduler;
  std::size_t users = 0;
  std::string faults = "none";  ///< fault level name ("none" = benign cell)
  std::int64_t measured_slots = 0;
  std::int64_t blocks = 0;          ///< alternating blocks; 0 = one window
  double ns_per_slot = 0.0;         ///< mean, or the block median when blocks > 0
  double ns_per_slot_ci95 = 0.0;    ///< 95% half-width (see ci95_lo / ci95_hi)
  double ns_per_slot_ci95_lo = 0.0;
  double ns_per_slot_ci95_hi = 0.0;
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

/// Distribution-free 95% interval for the median of `values`: the order
/// statistics [x(k), x(n+1-k)] with the largest k whose two binomial(n, 1/2)
/// tails sum to at most 5% (k = 3 of 12: 96.1% coverage). Under 6 values no
/// k qualifies and the interval is the whole range.
std::pair<double, double> median_ci95(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t k = 1;
  double below = std::ldexp(1.0, -static_cast<int>(n));  // P(B <= 0)
  double choose = 1.0;                                     // C(n, j)
  for (std::size_t j = 1; 2 * (j + 1) <= n; ++j) {
    choose = choose * as_double(n - j + 1) / as_double(j);
    below += choose * std::ldexp(1.0, -static_cast<int>(n));  // P(B <= j)
    if (2.0 * below > 0.05) break;
    k = j + 1;
  }
  return {values[k - 1], values[n - k]};
}

/// One slot-path gateway: the paper scenario at `users` with capacity
/// 500 KB/s per user, exact-EMA V = 0.05, and (when `faults` is active) the
/// fault hook and departure stamps attached as Simulator::run attaches them.
struct SlotGateway {
  ScenarioConfig scenario;
  std::vector<UserEndpoint> endpoints;
  BaseStation bs;
  Framework framework;
  std::unique_ptr<FaultInjector> injector;
  std::int64_t slot = 0;

  static ScenarioConfig make_scenario(std::size_t users, const FaultConfig& faults) {
    ScenarioConfig config = paper_scenario(users, 42);
    config.capacity_kbps = 500.0 * as_double(users);
    config.faults = faults;
    return config;
  }

  static SchedulerOptions options() {
    SchedulerOptions options;
    options.ema.v_weight = 0.05;
    return options;
  }

  SlotGateway(const std::string& scheduler, std::size_t users, const FaultConfig& faults,
              const SignalTraceSet* trace = nullptr)
      : scenario(make_scenario(users, faults)),
        endpoints(build_endpoints(scenario)),
        bs(capacity_profile(scenario)),
        framework(InfoCollector(scenario.slot, scenario.link, scenario.radio),
                  make_scheduler(scheduler, options()), SchedulingMode::kEnergyMinimization,
                  users) {
    if (trace != nullptr) {
      for (std::size_t i = 0; i < endpoints.size(); ++i) endpoints[i].attach_trace(trace, i);
    }
    if (scenario.faults.any()) {
      injector = std::make_unique<FaultInjector>(
          std::make_shared<const FaultSchedule>(make_fault_schedule(scenario)));
      for (std::size_t i = 0; i < endpoints.size(); ++i) {
        endpoints[i].depart_at(injector->schedule().departure_slot(i));
      }
      framework.attach_fault_hook(injector.get());
    }
  }

  const SlotOutcome& run_slot() { return framework.run_slot(slot++, endpoints, bs); }
};

/// Fills the rows' traced time (the same slots against the campaign engine's
/// cached substrate: fresh endpoints reading signal/throughput/energy out of
/// the precomputed slot-major matrices, trace horizon trimmed to the
/// measured window) and the decision cost alone on `measured`'s warm
/// steady-state snapshot.
void measure_traced_and_solve(SlotCase& result, SlotGateway& measured, std::int64_t warmup,
                              std::int64_t solve_iters) {
  ScenarioConfig traced_scenario = measured.scenario;
  traced_scenario.max_slots = warmup + result.measured_slots;
  const std::shared_ptr<const SignalTraceSet> trace =
      generate_signal_trace_set(traced_scenario);
  SlotGateway traced(result.scheduler, result.users, measured.scenario.faults, trace.get());
  for (std::int64_t slot = 0; slot < warmup; ++slot) traced.run_slot();
  result.ns_per_slot_traced =
      time_ns_per_iter(result.measured_slots, [&] { traced.run_slot(); });

  Allocation decision;
  Scheduler& scheduler = measured.framework.scheduler();
  const SlotContext& ctx = measured.framework.last_context();
  scheduler.allocate_into(ctx, decision);
  result.ns_per_solve =
      time_ns_per_iter(solve_iters, [&] { scheduler.allocate_into(ctx, decision); });
}

/// One row measured as one window of `measured` consecutive slots.
SlotCase bench_slot_path(const std::string& scheduler_name, std::size_t users,
                         std::int64_t warmup, std::int64_t measured,
                         std::int64_t solve_iters,
                         const bench::FaultLevel* level = nullptr) {
  SlotCase result;
  result.scheduler = scheduler_name;
  result.users = users;
  if (level != nullptr) result.faults = level->name;
  result.measured_slots = measured;

  SlotGateway gateway(scheduler_name, users, level != nullptr ? level->faults : FaultConfig{});
  for (std::int64_t slot = 0; slot < warmup; ++slot) gateway.run_slot();

  // Per-slot samples (pre-reserved so the sampling itself stays off the
  // allocation counter), then mean + 95% CI of the mean.
  std::vector<double> samples;
  samples.reserve(checked_size(measured));
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  sample_ns(measured, samples, [&] { gateway.run_slot(); });
  const std::uint64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);
  const Summary summary = summarize(samples);
  result.ns_per_slot = summary.mean;
  result.ns_per_slot_ci95 = ci95_halfwidth(summary);
  result.ns_per_slot_ci95_lo = summary.mean - result.ns_per_slot_ci95;
  result.ns_per_slot_ci95_hi = summary.mean + result.ns_per_slot_ci95;
  result.allocs_per_slot = as_double(allocs_after - allocs_before) / as_double(measured);
  measure_traced_and_solve(result, gateway, warmup, solve_iters);
  return result;
}

/// One row per scheduler at `users`, measured in `blocks` alternating blocks
/// of `slots_per_block` slots, as the telemetry row does: block b runs the
/// schedulers in an order rotated by b, so a host speed-regime switch lands
/// on every row. Each row reports the median of its block means with the
/// distribution-free 95% interval of that median.
std::vector<SlotCase> bench_slot_path_blocks(const std::vector<std::string>& schedulers,
                                             std::size_t users, std::int64_t warmup,
                                             std::int64_t blocks,
                                             std::int64_t slots_per_block,
                                             std::int64_t solve_iters) {
  std::vector<std::unique_ptr<SlotGateway>> gateways;
  for (const std::string& name : schedulers) {
    gateways.push_back(std::make_unique<SlotGateway>(name, users, FaultConfig{}));
    for (std::int64_t slot = 0; slot < warmup; ++slot) gateways.back()->run_slot();
  }
  const std::size_t rows = schedulers.size();
  std::vector<std::vector<double>> block_ns(rows);
  std::vector<std::uint64_t> allocs(rows, 0);
  for (std::vector<double>& row : block_ns) row.reserve(checked_size(blocks));
  for (std::int64_t block = 0; block < blocks; ++block) {
    for (std::size_t k = 0; k < rows; ++k) {
      const std::size_t row = (checked_size(block) + k) % rows;
      SlotGateway& gateway = *gateways[row];
      const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
      const double ns = time_ns(slots_per_block, [&] { gateway.run_slot(); });
      allocs[row] += g_alloc_count.load(std::memory_order_relaxed) - before;
      block_ns[row].push_back(ns / as_double(slots_per_block));
    }
  }

  std::vector<SlotCase> results;
  for (std::size_t row = 0; row < rows; ++row) {
    SlotCase result;
    result.scheduler = schedulers[row];
    result.users = users;
    result.measured_slots = blocks * slots_per_block;
    result.blocks = blocks;
    result.ns_per_slot = percentile(block_ns[row], 0.5);
    const auto [lo, hi] = median_ci95(block_ns[row]);
    result.ns_per_slot_ci95_lo = lo;
    result.ns_per_slot_ci95_hi = hi;
    result.ns_per_slot_ci95 = std::max(result.ns_per_slot - lo, hi - result.ns_per_slot);
    result.allocs_per_slot = as_double(allocs[row]) / as_double(result.measured_slots);
    measure_traced_and_solve(result, *gateways[row], warmup, solve_iters);
    results.push_back(std::move(result));
  }
  return results;
}

// ---------------------------------------------------------------------------
// Campaign gate: scheduler x seed grid, cached trace vs per-cell regeneration.
// ---------------------------------------------------------------------------

struct CampaignResult {
  std::size_t users = 0;
  std::size_t schedulers = 0;
  std::size_t replications = 0;
  std::int64_t horizon_slots = 0;
  std::vector<double> uncached_block_s;  ///< one wall time per block
  std::vector<double> cached_block_s;    ///< one wall time per block
  double uncached_wall_s = 0.0;
  double cached_wall_s = 0.0;
  double speedup = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t bytes_per_trace = 0;  ///< one cached trace: its signal matrix
  /// Rows of each fill-on-read trace the cached grid filled (mean over its
  /// traces): the part of bytes_per_trace the cells ever wrote.
  double filled_slots_per_trace = 0.0;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The campaign gates' grid: 7 schedulers x `replications` seeds at N = 200.
std::vector<ExperimentSpec> gate_grid(std::int64_t horizon, std::size_t replications) {
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
  // generation cost is untouched): the gates measure how well the grid
  // amortizes trace generation, and early-stopped sims keep the generation
  // share of an uncached cell at its realistic full-horizon cost.
  base.video_min_mb = 100.0;
  base.video_max_mb = 200.0;
  return make_campaign_grid(base, series, replications);
}

CampaignResult bench_campaign(std::int64_t horizon) {
  // The two sides alternate over 4 blocks, each block flipping which goes
  // first, and the gate divides their mean wall times, so one switch of the
  // host's speed regime lands on both sides instead of moving the ratio.
  // Each cached run gets a fresh cache and so generates its 8 traces.
  CampaignResult result;
  result.replications = 8;
  const std::vector<ExperimentSpec> specs = gate_grid(horizon, result.replications);
  result.users = specs.front().scenario.users;
  result.schedulers = specs.size() / result.replications;
  result.horizon_slots = horizon;
  result.bytes_per_trace = SignalTraceSet::estimate_bytes(result.users, horizon);

  std::vector<std::uint64_t> first;  // per-cell digests of the first run
  for (std::size_t run = 0; run < 8; ++run) {
    const bool cached = (run + run / 2) % 2 == 1;  // blocks UC, CU, UC, CU
    TraceCache cache;
    CampaignOptions options;
    options.use_trace_cache = cached;
    options.cache = &cache;
    const auto start = Clock::now();
    const std::vector<RunMetrics> cells = run_campaign(specs, options);
    (cached ? result.cached_block_s : result.uncached_block_s)
        .push_back(seconds_since(start));
    if (cached) {
      result.cache_hits = cache.hits();
      result.cache_misses = cache.misses();
      // One cell per seed finds its trace: the lookups come after the
      // counts above, so they add hits nobody reads.
      double filled = 0.0;
      for (std::size_t rep = 0; rep < result.replications; ++rep) {
        filled += as_double(
            cache.get_or_generate(specs[rep * result.schedulers].scenario)->filled_slots());
      }
      result.filled_slots_per_trace = filled / as_double(result.replications);
    }
    // The differential guarantee the cache rests on: every cell of every
    // run bit-identical to the first run's.
    std::vector<std::uint64_t> digests;
    for (const RunMetrics& cell : cells) digests.push_back(metrics_digest(cell));
    if (first.empty()) first = digests;
    require(digests == first, "campaign cell diverged from the first run's");
  }
  result.uncached_wall_s = summarize(result.uncached_block_s).mean;
  result.cached_wall_s = summarize(result.cached_block_s).mean;
  result.speedup =
      result.cached_wall_s > 0.0 ? result.uncached_wall_s / result.cached_wall_s : 0.0;
  return result;
}

// ---------------------------------------------------------------------------
// Pool scaling: the campaign grid on one thread vs a 4-thread pool.
// ---------------------------------------------------------------------------

struct PoolScalingResult {
  std::size_t threads = 0;  ///< pool size of the parallel run
  std::size_t cells = 0;
  double one_thread_wall_s = 0.0;
  double pool_wall_s = 0.0;
  double speedup = 0.0;
  std::uint64_t one_thread_digest = 0;
  std::uint64_t pool_digest = 0;
  bool bit_identical = false;
};

PoolScalingResult bench_pool_scaling(std::int64_t horizon) {
  // The campaign gate's grid at 4 seeds, on one thread and on four, so each
  // seed's cells can run on a worker of their own. The pool size is fixed,
  // not the host's core count, so the digest check runs a parallel grid even
  // on a one-core host (where only the informational speedup drops). Each
  // side gets its own fresh cache and generates every trace itself.
  constexpr std::size_t kPoolThreads = 4;
  const std::vector<ExperimentSpec> specs = gate_grid(horizon, 4);

  PoolScalingResult result;
  result.cells = specs.size();
  const auto timed_run = [&](std::size_t threads, double& wall_s) {
    TraceCache cache;
    CampaignOptions campaign;
    campaign.threads = threads;
    campaign.cache = &cache;
    const auto start = Clock::now();
    const std::vector<RunMetrics> results = run_campaign(specs, campaign);
    wall_s = seconds_since(start);
    return metrics_digest(std::span<const RunMetrics>(results));
  };
  result.one_thread_digest = timed_run(1, result.one_thread_wall_s);
  result.threads = kPoolThreads;
  result.pool_digest = timed_run(result.threads, result.pool_wall_s);
  result.speedup =
      result.pool_wall_s > 0.0 ? result.one_thread_wall_s / result.pool_wall_s : 0.0;
  result.bit_identical = result.one_thread_digest == result.pool_digest;
  return result;
}

// ---------------------------------------------------------------------------
// Fault campaign: shared fault schedules vs per-cell draws.
// ---------------------------------------------------------------------------

struct FaultCampaignResult {
  std::size_t users = 0;
  std::size_t schedulers = 0;
  std::size_t levels = 0;
  std::size_t seeds = 0;
  std::size_t cells = 0;
  std::int64_t horizon_slots = 0;
  std::size_t threads = 0;
  std::int64_t blocks = 0;
  std::size_t schedule_keys = 0;       ///< distinct (seed, users, horizon, faults)
  bool draws_match_keys = true;        ///< every shared run drew schedule_keys
  std::int64_t shared_draws = 0;       ///< schedules drawn by one shared run
  std::int64_t per_cell_draws = 0;     ///< schedules drawn by one per-cell run
  double shared_wall_s = 0.0;          ///< mean per run
  double per_cell_wall_s = 0.0;        ///< mean per run
  double speedup = 0.0;
  std::uint64_t shared_digest = 0;
  std::uint64_t per_cell_digest = 0;
  bool blocks_agree = true;            ///< every later block matched the first

  [[nodiscard]] bool pass() const noexcept {
    return shared_digest == per_cell_digest && blocks_agree && draws_match_keys;
  }
};

FaultCampaignResult bench_fault_campaign(std::int64_t horizon) {
  // bench_fault_sweep's seven schedulers under its three faulting levels at
  // N = 40, two seeds. One side is run_campaign, which draws one schedule
  // per key; the other runs the same cells on the same executor, pool and
  // warmed trace cache through run_experiment with no schedule, so every
  // cell draws its own. Alternating blocks flip which side goes first.
  constexpr std::size_t kThreads = 4;
  constexpr std::int64_t kBlocks = 4;
  constexpr std::size_t kSeeds = 2;
  std::vector<CampaignSeries> series;
  for (const std::string& name : bench::fault_sweep_schedulers()) {
    series.push_back({name, name, {}});
  }
  FaultCampaignResult result;
  std::vector<ExperimentSpec> specs;
  for (const bench::FaultLevel& level : bench::fault_sweep_levels()) {
    if (!level.faults.any()) continue;
    ++result.levels;
    ScenarioConfig base = paper_scenario(40, 42);
    base.max_slots = horizon;
    base.faults = level.faults;
    for (ExperimentSpec& spec : make_campaign_grid(base, series, kSeeds)) {
      spec.label = level.name + "/" + spec.label;
      specs.push_back(std::move(spec));
    }
  }

  result.users = 40;
  result.schedulers = series.size();
  result.seeds = kSeeds;
  result.cells = specs.size();
  result.horizon_slots = horizon;
  result.threads = kThreads;
  result.blocks = kBlocks;
  result.schedule_keys = result.levels * kSeeds;

  TraceCache cache;
  CampaignOptions options;
  options.threads = kThreads;
  options.cache = &cache;
  (void)run_campaign(specs, options);  // warms the cache: 6 traces
  telemetry::set_enabled(true);        // fault.schedules counts the draws
  const telemetry::Counter& draws = telemetry::global_registry().counter("fault.schedules");
  const auto timed = [&](bool shared) {
    const std::int64_t draws_before = draws.value();
    const auto start = Clock::now();
    const std::vector<RunMetrics> results =
        shared ? run_campaign(specs, options)
               : run_campaign_cells(
                     specs.size(), options,
                     [&](std::size_t i) { return CampaignCell{&specs[i].scenario, 0}; },
                     [&](std::size_t i, std::shared_ptr<const SignalTraceSet> trace) {
                       return run_experiment(specs[i], /*keep_series=*/false,
                                             std::move(trace));
                     });
    (shared ? result.shared_wall_s : result.per_cell_wall_s) += seconds_since(start);
    const std::int64_t drawn = draws.value() - draws_before;
    if (shared) {
      result.shared_draws = drawn;
      if (drawn != checked_index(result.schedule_keys)) result.draws_match_keys = false;
    } else {
      result.per_cell_draws = drawn;
    }
    return metrics_digest(std::span<const RunMetrics>(results));
  };
  for (std::int64_t block = 0; block < kBlocks; ++block) {
    const bool shared_first = block % 2 == 0;
    std::uint64_t digest[2] = {0, 0};  // [per-cell draws, shared]
    digest[shared_first ? 1 : 0] = timed(shared_first);
    digest[shared_first ? 0 : 1] = timed(!shared_first);
    if (block == 0) {
      result.per_cell_digest = digest[0];
      result.shared_digest = digest[1];
    } else if (digest[0] != result.per_cell_digest || digest[1] != result.shared_digest) {
      result.blocks_agree = false;
    }
  }
  result.shared_wall_s /= as_double(kBlocks);
  result.per_cell_wall_s /= as_double(kBlocks);
  result.speedup =
      result.shared_wall_s > 0.0 ? result.per_cell_wall_s / result.shared_wall_s : 0.0;
  return result;
}

// ---------------------------------------------------------------------------
// Trace generation: user-parallel generation vs the serial public-API walk.
// ---------------------------------------------------------------------------

struct TraceGenerationResult {
  std::size_t users = 0;
  std::int64_t slots = 0;
  std::size_t blocks = 0;        ///< generations per side
  std::size_t pool_threads = 0;  ///< workers of the pool the main thread fans out on
  double parallel_wall_s = 0.0;  ///< mean per generation
  double serial_wall_s = 0.0;    ///< mean per generation
  double speedup = 0.0;
  bool bit_identical = true;
};

/// The serial reference: constructor, then fill_user per user in order.
std::shared_ptr<const SignalTraceSet> serial_trace_set(const ScenarioConfig& config) {
  std::vector<UserEndpoint> endpoints = build_endpoints(config);
  auto set = std::make_shared<SignalTraceSet>(config.users, config.max_slots);
  for (std::size_t user = 0; user < endpoints.size(); ++user) {
    set->fill_user(user, *endpoints[user].signal);
  }
  return set;
}

bool same_matrices(const SignalTraceSet& a, const SignalTraceSet& b) {
  return a.users() == b.users() && a.slots() == b.slots() &&
         std::memcmp(a.signal_data(), b.signal_data(), a.total_bytes()) == 0;
}

TraceGenerationResult bench_trace_generation(std::int64_t horizon) {
  // Alternating blocks (each block flips which side goes first) so a host
  // speed-regime switch lands on both sides.
  constexpr std::size_t kUsers = 200;
  constexpr std::size_t kBlocks = 4;
  ScenarioConfig scenario = paper_scenario(kUsers, 42);
  scenario.max_slots = horizon;
  TraceGenerationResult result;
  result.users = kUsers;
  result.slots = horizon;
  result.blocks = kBlocks;
  result.pool_threads = caller_or_shared_pool().size();
  const std::shared_ptr<const SignalTraceSet> reference = serial_trace_set(scenario);
  const auto timed = [&](bool parallel) {
    const auto start = Clock::now();
    const std::shared_ptr<const SignalTraceSet> set =
        parallel ? generate_signal_trace_set(scenario) : serial_trace_set(scenario);
    (parallel ? result.parallel_wall_s : result.serial_wall_s) += seconds_since(start);
    result.bit_identical = result.bit_identical && same_matrices(*set, *reference);
  };
  for (std::size_t block = 0; block < kBlocks; ++block) {
    const bool parallel_first = block % 2 == 0;
    timed(parallel_first);
    timed(!parallel_first);
  }
  result.parallel_wall_s /= as_double(kBlocks);
  result.serial_wall_s /= as_double(kBlocks);
  result.speedup =
      result.parallel_wall_s > 0.0 ? result.serial_wall_s / result.parallel_wall_s : 0.0;
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

// ---------------------------------------------------------------------------
// Telemetry cost: the same work with telemetry off and on, in alternating
// blocks, digest-checked.
// ---------------------------------------------------------------------------

struct TelemetryCostResult {
  std::size_t slot_users = 0;
  std::int64_t slot_blocks = 0;
  std::int64_t slots_per_block = 0;
  double slot_off_ns_per_slot = 0.0;
  double slot_on_ns_per_slot = 0.0;
  std::uint64_t slot_off_digest = 0;
  std::uint64_t slot_on_digest = 0;
  std::size_t pool_threads = 0;
  std::size_t pool_cells = 0;
  std::int64_t pool_blocks = 0;
  double pool_off_wall_s = 0.0;
  double pool_on_wall_s = 0.0;
  std::uint64_t pool_off_digest = 0;  ///< first block's
  std::uint64_t pool_on_digest = 0;   ///< first block's
  bool pool_blocks_agree = true;      ///< every later block matched the first

  [[nodiscard]] bool digests_equal() const noexcept {
    return slot_off_digest == slot_on_digest && pool_off_digest == pool_on_digest &&
           pool_blocks_agree;
  }
};

/// Restores the process-wide telemetry switch however the row exits.
struct TelemetryOnAtExit {
  ~TelemetryOnAtExit() { telemetry::set_enabled(true); }
};

/// An exact-EMA slot-path gateway with a metrics collector to digest what it
/// did.
struct EmaGateway {
  SlotGateway gateway;
  MetricsCollector metrics;

  explicit EmaGateway(std::size_t users)
      : gateway("ema", users, FaultConfig{}), metrics(users, /*keep_series=*/false) {}

  /// Runs `slots` slots and returns their wall time in ns.
  double run(std::int64_t slots) {
    return time_ns(slots, [&] {
      const SlotOutcome& outcome = gateway.run_slot();
      metrics.record_slot(gateway.framework.last_context(), outcome);
    });
  }
};

TelemetryCostResult bench_telemetry_cost(std::int64_t horizon, std::int64_t warmup,
                                         std::int64_t slots_per_block) {
  const TelemetryOnAtExit restore;
  TelemetryCostResult result;

  // Slot path: two identical N = 1000 exact-EMA gateways, one always run
  // with telemetry off and one with it on, alternating block by block (and
  // which side goes first) so a host speed-regime switch or the cache state
  // one side leaves behind lands on both sides.
  constexpr std::size_t kUsers = 1000;
  constexpr std::int64_t kSlotBlocks = 8;
  EmaGateway off(kUsers);
  EmaGateway on(kUsers);
  telemetry::set_enabled(false);
  (void)off.run(warmup);
  telemetry::set_enabled(true);
  (void)on.run(warmup);
  double off_ns = 0.0;
  double on_ns = 0.0;
  const auto run_block = [&](bool telemetry_on) {
    telemetry::set_enabled(telemetry_on);
    (telemetry_on ? on_ns : off_ns) += (telemetry_on ? on : off).run(slots_per_block);
  };
  for (std::int64_t block = 0; block < kSlotBlocks; ++block) {
    const bool on_first = block % 2 == 1;
    run_block(on_first);
    run_block(!on_first);
  }
  const double measured = as_double(kSlotBlocks * slots_per_block);
  result.slot_users = kUsers;
  result.slot_blocks = kSlotBlocks;
  result.slots_per_block = slots_per_block;
  result.slot_off_ns_per_slot = off_ns / measured;
  result.slot_on_ns_per_slot = on_ns / measured;
  result.slot_off_digest = metrics_digest(off.metrics.finish());
  result.slot_on_digest = metrics_digest(on.metrics.finish());

  // Pool grid: the pool-scaling grid on 4 threads over one trace cache,
  // warmed by an untimed run, so every timed run simulates the same cells
  // against resident traces and the ratio isolates the slot work.
  constexpr std::size_t kPoolThreads = 4;
  constexpr std::int64_t kPoolBlocks = 4;
  const std::vector<ExperimentSpec> specs = gate_grid(horizon, 4);
  TraceCache cache;
  CampaignOptions campaign;
  campaign.threads = kPoolThreads;
  campaign.cache = &cache;
  (void)run_campaign(specs, campaign);
  const auto timed_grid = [&](bool telemetry_on) {
    telemetry::set_enabled(telemetry_on);
    const auto start = Clock::now();
    const std::vector<RunMetrics> results = run_campaign(specs, campaign);
    (telemetry_on ? result.pool_on_wall_s : result.pool_off_wall_s) += seconds_since(start);
    return metrics_digest(std::span<const RunMetrics>(results));
  };
  result.pool_threads = kPoolThreads;
  result.pool_cells = specs.size();
  result.pool_blocks = kPoolBlocks;
  for (std::int64_t block = 0; block < kPoolBlocks; ++block) {
    const bool on_first = block % 2 == 1;
    std::uint64_t digest[2] = {0, 0};  // [telemetry off, telemetry on]
    digest[on_first ? 1 : 0] = timed_grid(on_first);
    digest[on_first ? 0 : 1] = timed_grid(!on_first);
    if (block == 0) {
      result.pool_off_digest = digest[0];
      result.pool_on_digest = digest[1];
    } else if (digest[0] != result.pool_off_digest || digest[1] != result.pool_on_digest) {
      result.pool_blocks_agree = false;
    }
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------

int run(int argc, const char* const* argv) {
  std::string out_path = "BENCH_PR30.json";
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
  // and the tentpole scale (N = 1000, M = 5000). Production runs ten solves
  // per reference solve at N = 40 and N = 200 and 50 per 3 at N = 1000, so
  // the two timed totals are about equally long and a stall of a few ms
  // cannot swing the ratio from the short side. The mixed-cost rows come
  // first (solver[0] is the gated one); the Eq. 5 and continuous-tail rows
  // after them report each DP row kernel on its own, ungated.
  std::printf("solver microbench (production solver vs reference DP)\n");
  std::vector<SolverResult> solver_results;
  solver_results.push_back(bench_solver(40, 250, 10 * clamp(200), clamp(200)));
  solver_results.push_back(bench_solver(200, 1000, 10 * clamp(20), clamp(20)));
  solver_results.push_back(bench_solver(1000, 5000, clamp(50), clamp(3)));
  for (const CostModel model : {CostModel::kEq5, CostModel::kContinuousTail}) {
    solver_results.push_back(bench_solver(40, 250, 10 * clamp(200), clamp(200), model));
    solver_results.push_back(bench_solver(200, 1000, 10 * clamp(20), clamp(20), model));
  }
  for (const SolverResult& r : solver_results) {
    std::printf(
        "  %-15s N=%-4zu M=%-5lld production %9.0f ns   reference %12.0f ns   %7.1fx   "
        "%lld of %lld rows on the deque\n",
        cost_model_name(r.model), r.users, static_cast<long long>(r.capacity_units),
        r.ns_per_solve, r.reference_ns_per_solve, r.speedup,
        static_cast<long long>(r.deque_rows), static_cast<long long>(r.dp_rows));
  }

  constexpr double kMinSpeedup = 5.0;
  const bool solver_gate_pass = solver_results.front().speedup >= kMinSpeedup;

  std::printf("slot-path matrix (paper scenario, capacity 500 KB/s per user)\n");
  std::vector<SlotCase> slot_cases;
  const std::vector<std::string> schedulers{"default", "rtma", "ema-fast", "ema"};
  const std::int64_t warmup = clamp(20);
  // Measured windows sized so every row — N = 1000 included — reports a
  // meaningful 95% CI while the whole matrix stays minutes. The N = 200 rows
  // run in 12 alternating blocks of 40 slots: a single 120-slot window per
  // row read ema-fast 156 +- 168 us/slot, too wide to order the schedulers.
  for (const std::string& name : schedulers) {
    slot_cases.push_back(bench_slot_path(name, 40, warmup, clamp(200), clamp(50)));
  }
  for (SlotCase& row : bench_slot_path_blocks(schedulers, 200, warmup, 12, clamp(40),
                                              clamp(50))) {
    slot_cases.push_back(std::move(row));
  }
  for (const std::string& name : schedulers) {
    slot_cases.push_back(bench_slot_path(name, 1000, warmup, clamp(160), clamp(20)));
  }
  // The fault hook's degrade and reconcile on the slot path, so the
  // allocation gate covers the cursor walk.
  slot_cases.push_back(bench_slot_path("ema", 40, warmup, clamp(200), clamp(50),
                                       &bench::fault_sweep_levels().back()));
  double ema_1000_ns_per_slot = -1.0;
  double max_allocs_per_slot = 0.0;
  for (const SlotCase& c : slot_cases) {
    if (c.scheduler == "ema" && c.users == 1000) ema_1000_ns_per_slot = c.ns_per_slot;
    max_allocs_per_slot = std::max(max_allocs_per_slot, c.allocs_per_slot);
    std::printf(
        "  %-9s N=%-4zu %-6s %11.0f +-%8.0f ns/slot%s %11.0f ns/slot(traced) %11.0f "
        "ns/solve %7.2f allocs/slot\n",
        c.scheduler.c_str(), c.users, c.faults.c_str(), c.ns_per_slot, c.ns_per_slot_ci95,
        c.blocks > 0 ? " (block median)" : "", c.ns_per_slot_traced, c.ns_per_solve,
        c.allocs_per_slot);
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
  std::printf("campaign grid (7 schedulers x 8 seeds, N=200, 4 alternating blocks)\n");
  const CampaignResult campaign = bench_campaign(clamp(10000));
  for (std::size_t b = 0; b < campaign.cached_block_s.size(); ++b) {
    std::printf("  block %zu   uncached %7.2f s   cached %7.2f s\n", b,
                campaign.uncached_block_s[b], campaign.cached_block_s[b]);
  }
  std::printf(
      "  uncached %7.2f s   cached %7.2f s   speedup %5.2fx   cache %llu hits / %llu misses"
      "   %.1f MB per trace, %.0f of %lld rows filled\n",
      campaign.uncached_wall_s, campaign.cached_wall_s, campaign.speedup,
      static_cast<unsigned long long>(campaign.cache_hits),
      static_cast<unsigned long long>(campaign.cache_misses),
      as_double(campaign.bytes_per_trace) / 1e6, campaign.filled_slots_per_trace,
      static_cast<long long>(campaign.horizon_slots));
  const bool campaign_enforced = repro == 0;
  const bool campaign_pass =
      !campaign_enforced || campaign.speedup >= kMinCampaignSpeedup;

  // Pool scaling: the pool's grid must hash to the one-thread digest. Bit
  // identity is timing-independent, so this gate is enforced at every scale;
  // only the wall-clock ratio is informational.
  std::printf("pool scaling (7 schedulers x 4 seeds, N=200, 1 thread vs 4)\n");
  const PoolScalingResult pool = bench_pool_scaling(clamp(10000));
  std::printf(
      "  1 thread %7.2f s   %zu threads %7.2f s   speedup %5.2fx   digest %016llx %s\n",
      pool.one_thread_wall_s, pool.threads, pool.pool_wall_s, pool.speedup,
      static_cast<unsigned long long>(pool.pool_digest),
      pool.bit_identical ? "== 1 thread" : "!= 1 thread (MISMATCH)");
  const bool pool_pass = pool.bit_identical;

  // Fault campaign: shared schedules must digest equal to per-cell draws and
  // draw exactly one schedule per key (both enforced at every scale); the
  // wall times are informational.
  std::printf("fault campaign (7 schedulers x 3 fault levels x 2 seeds, N=40, 4 threads)\n");
  const FaultCampaignResult fault_campaign = bench_fault_campaign(clamp(10000));
  std::printf(
      "  per-cell draws %7.3f s (%lld schedules)   shared %7.3f s (%lld schedules, %zu "
      "keys)   speedup %5.2fx   %s\n",
      fault_campaign.per_cell_wall_s, static_cast<long long>(fault_campaign.per_cell_draws),
      fault_campaign.shared_wall_s, static_cast<long long>(fault_campaign.shared_draws),
      fault_campaign.schedule_keys, fault_campaign.speedup,
      fault_campaign.shared_digest == fault_campaign.per_cell_digest &&
              fault_campaign.blocks_agree
          ? "digest shared == per-cell"
          : "digest shared != per-cell (MISMATCH)");
  const bool fault_campaign_pass = fault_campaign.pass();

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

  // Telemetry cost: telemetry must stay observation-only (digest equality,
  // enforced at every scale); the on/off time ratios are informational.
  std::printf("telemetry cost (exact EMA N=1000 slot path; 7x4 grid on 4 threads; off vs on)\n");
  const TelemetryCostResult telemetry_cost =
      bench_telemetry_cost(clamp(10000), clamp(20), clamp(50));
  const double slot_telemetry_ratio =
      telemetry_cost.slot_on_ns_per_slot / telemetry_cost.slot_off_ns_per_slot;
  const double pool_telemetry_ratio =
      telemetry_cost.pool_on_wall_s / telemetry_cost.pool_off_wall_s;
  std::printf(
      "  slot path %9.0f ns/slot off  %9.0f ns/slot on  ratio %5.3f   digest %s\n"
      "  pool grid %9.2f s off        %9.2f s on        ratio %5.3f   digest %s\n",
      telemetry_cost.slot_off_ns_per_slot, telemetry_cost.slot_on_ns_per_slot,
      slot_telemetry_ratio,
      telemetry_cost.slot_off_digest == telemetry_cost.slot_on_digest ? "on == off"
                                                                      : "on != off (MISMATCH)",
      telemetry_cost.pool_off_wall_s, telemetry_cost.pool_on_wall_s, pool_telemetry_ratio,
      telemetry_cost.pool_off_digest == telemetry_cost.pool_on_digest &&
              telemetry_cost.pool_blocks_agree
          ? "on == off"
          : "on != off (MISMATCH)");
  const bool telemetry_pass = telemetry_cost.digests_equal();

  // Trace generation: the parallel result must equal the serial walk byte for
  // byte (enforced at every scale); the wall times are informational.
  std::printf("trace generation (N=200, main thread vs serial public-API walk)\n");
  const TraceGenerationResult generation = bench_trace_generation(clamp(10000));
  std::printf(
      "  serial %7.3f s   parallel %7.3f s (%zu-worker shared pool)   speedup %5.2fx   %s\n",
      generation.serial_wall_s, generation.parallel_wall_s, generation.pool_threads,
      generation.speedup,
      generation.bit_identical ? "bit-identical" : "MISMATCH");
  const bool generation_pass = generation.bit_identical;

  const auto hex_digest = [](std::uint64_t digest) {
    char buffer[19];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return std::string(buffer);
  };

  const auto emit_slot_case = [](std::ofstream& json, const SlotCase& c) {
    json << "    {\"scheduler\": \"" << c.scheduler << "\", \"users\": " << c.users
         << ", \"faults\": \"" << c.faults << "\""
         << ", \"measured_slots\": " << c.measured_slots
         << ", \"blocks\": " << c.blocks
         << ", \"ns_per_slot\": " << c.ns_per_slot
         << ", \"ns_per_slot_ci95\": " << c.ns_per_slot_ci95
         << ", \"ns_per_slot_ci95_lo\": " << c.ns_per_slot_ci95_lo
         << ", \"ns_per_slot_ci95_hi\": " << c.ns_per_slot_ci95_hi
         << ", \"ns_per_slot_traced\": " << c.ns_per_slot_traced
         << ", \"ns_per_solve\": " << c.ns_per_solve
         << ", \"allocs_per_slot\": " << c.allocs_per_slot << "}";
  };

  std::ofstream json(out_path);
  require(json.good(), "cannot open perf-gate output file");
  json << "{\n";
  json << "  \"schema\": \"jstream-perf-gate-v14\",\n";
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
  json << "  \"pool_scaling_gate\": {\"metric\": \"pool_scaling.pool_digest == "
       << "pool_scaling.one_thread_digest\", "
       << "\"threads\": " << pool.threads
       << ", \"cells\": " << pool.cells
       << ", \"one_thread_wall_s\": " << pool.one_thread_wall_s
       << ", \"pool_wall_s\": " << pool.pool_wall_s
       << ", \"speedup_pool_vs_one_thread\": " << pool.speedup
       << ", \"one_thread_digest\": \"" << hex_digest(pool.one_thread_digest)
       << "\", \"pool_digest\": \"" << hex_digest(pool.pool_digest)
       << "\", \"enforced\": true, \"pass\": "
       << (pool_pass ? "true" : "false") << "},\n";
  json << "  \"fault_campaign_gate\": {\"metric\": \"fault_campaign.shared_digest == "
       << "fault_campaign.per_cell_digest && fault_campaign.shared_draws == "
       << "fault_campaign.schedule_keys\", "
       << "\"users\": " << fault_campaign.users
       << ", \"schedulers\": " << fault_campaign.schedulers
       << ", \"fault_levels\": " << fault_campaign.levels
       << ", \"seeds\": " << fault_campaign.seeds
       << ", \"cells\": " << fault_campaign.cells
       << ", \"horizon_slots\": " << fault_campaign.horizon_slots
       << ", \"threads\": " << fault_campaign.threads
       << ", \"blocks\": " << fault_campaign.blocks
       << ", \"schedule_keys\": " << fault_campaign.schedule_keys
       << ", \"shared_draws\": " << fault_campaign.shared_draws
       << ", \"per_cell_draws\": " << fault_campaign.per_cell_draws
       << ", \"per_cell_wall_s\": " << fault_campaign.per_cell_wall_s
       << ", \"shared_wall_s\": " << fault_campaign.shared_wall_s
       << ", \"speedup_shared_vs_per_cell\": " << fault_campaign.speedup
       << ", \"per_cell_digest\": \"" << hex_digest(fault_campaign.per_cell_digest)
       << "\", \"shared_digest\": \"" << hex_digest(fault_campaign.shared_digest)
       << "\", \"blocks_agree\": " << (fault_campaign.blocks_agree ? "true" : "false")
       << ", \"enforced\": true, \"pass\": " << (fault_campaign_pass ? "true" : "false")
       << "},\n";
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
  json << "  \"telemetry_gate\": {\"metric\": \"telemetry_cost.*.on_digest == "
       << "telemetry_cost.*.off_digest\", "
       << "\"slot_path\": {\"scheduler\": \"ema\", \"users\": " << telemetry_cost.slot_users
       << ", \"blocks\": " << telemetry_cost.slot_blocks
       << ", \"slots_per_block\": " << telemetry_cost.slots_per_block
       << ", \"off_ns_per_slot\": " << telemetry_cost.slot_off_ns_per_slot
       << ", \"on_ns_per_slot\": " << telemetry_cost.slot_on_ns_per_slot
       << ", \"on_off_ratio\": " << slot_telemetry_ratio
       << ", \"off_digest\": \"" << hex_digest(telemetry_cost.slot_off_digest)
       << "\", \"on_digest\": \"" << hex_digest(telemetry_cost.slot_on_digest) << "\"}"
       << ", \"pool\": {\"threads\": " << telemetry_cost.pool_threads
       << ", \"cells\": " << telemetry_cost.pool_cells
       << ", \"blocks\": " << telemetry_cost.pool_blocks
       << ", \"off_wall_s\": " << telemetry_cost.pool_off_wall_s
       << ", \"on_wall_s\": " << telemetry_cost.pool_on_wall_s
       << ", \"on_off_ratio\": " << pool_telemetry_ratio
       << ", \"off_digest\": \"" << hex_digest(telemetry_cost.pool_off_digest)
       << "\", \"on_digest\": \"" << hex_digest(telemetry_cost.pool_on_digest)
       << "\", \"blocks_agree\": " << (telemetry_cost.pool_blocks_agree ? "true" : "false")
       << "}, \"enforced\": true, \"pass\": " << (telemetry_pass ? "true" : "false")
       << "},\n";
  json << "  \"trace_generation_gate\": {\"metric\": \"trace_generation.parallel == "
       << "trace_generation.serial (memcmp)\", "
       << "\"users\": " << generation.users
       << ", \"slots\": " << generation.slots
       << ", \"blocks\": " << generation.blocks
       << ", \"pool_threads\": " << generation.pool_threads
       << ", \"serial_wall_s\": " << generation.serial_wall_s
       << ", \"parallel_wall_s\": " << generation.parallel_wall_s
       << ", \"speedup_parallel_vs_serial\": " << generation.speedup
       << ", \"bit_identical\": " << (generation.bit_identical ? "true" : "false")
       << ", \"enforced\": true, \"pass\": " << (generation_pass ? "true" : "false")
       << "},\n";
  const auto json_list = [&](const std::vector<double>& values) {
    json << "[";
    for (std::size_t i = 0; i < values.size(); ++i) json << (i > 0 ? ", " : "") << values[i];
    json << "]";
  };
  json << "  \"campaign\": {\"users\": " << campaign.users
       << ", \"schedulers\": " << campaign.schedulers
       << ", \"replications\": " << campaign.replications
       << ", \"horizon_slots\": " << campaign.horizon_slots
       << ", \"blocks\": " << campaign.cached_block_s.size()
       << ", \"uncached_block_wall_s\": ";
  json_list(campaign.uncached_block_s);
  json << ", \"cached_block_wall_s\": ";
  json_list(campaign.cached_block_s);
  json << ", \"uncached_wall_s\": " << campaign.uncached_wall_s
       << ", \"cached_wall_s\": " << campaign.cached_wall_s
       << ", \"speedup_cached_vs_uncached\": " << campaign.speedup
       << ", \"cache_hits\": " << campaign.cache_hits
       << ", \"cache_misses\": " << campaign.cache_misses
       << ", \"bytes_per_trace\": " << campaign.bytes_per_trace
       << ", \"filled_slots_per_trace\": " << campaign.filled_slots_per_trace
       << ", \"bit_identical\": true},\n";
  json << "  \"solver\": [\n";
  for (std::size_t i = 0; i < solver_results.size(); ++i) {
    const SolverResult& r = solver_results[i];
    json << "    {\"costs\": \"" << cost_model_name(r.model) << "\", \"users\": " << r.users
         << ", \"capacity_units\": " << r.capacity_units
         << ", \"fast_iters\": " << r.fast_iters
         << ", \"reference_iters\": " << r.reference_iters
         << ", \"ns_per_solve\": " << r.ns_per_solve
         << ", \"reference_ns_per_solve\": " << r.reference_ns_per_solve
         << ", \"speedup_vs_reference\": " << r.speedup
         << ", \"dp_rows\": " << r.dp_rows << ", \"deque_rows\": " << r.deque_rows << "}"
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
  if (!pool_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: %zu-thread campaign digest %016llx != "
                 "1-thread digest %016llx\n",
                 pool.threads, static_cast<unsigned long long>(pool.pool_digest),
                 static_cast<unsigned long long>(pool.one_thread_digest));
    return 1;
  }
  if (!fault_campaign_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: fault campaign with shared schedules (digest "
                 "%016llx, %lld draws for %zu keys) differs from per-cell draws "
                 "(digest %016llx)%s\n",
                 static_cast<unsigned long long>(fault_campaign.shared_digest),
                 static_cast<long long>(fault_campaign.shared_draws),
                 fault_campaign.schedule_keys,
                 static_cast<unsigned long long>(fault_campaign.per_cell_digest),
                 fault_campaign.blocks_agree ? "" : "; blocks disagree");
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
  if (!telemetry_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: telemetry changed a result (slot path %016llx "
                 "off vs %016llx on; pool %016llx off vs %016llx on%s)\n",
                 static_cast<unsigned long long>(telemetry_cost.slot_off_digest),
                 static_cast<unsigned long long>(telemetry_cost.slot_on_digest),
                 static_cast<unsigned long long>(telemetry_cost.pool_off_digest),
                 static_cast<unsigned long long>(telemetry_cost.pool_on_digest),
                 telemetry_cost.pool_blocks_agree ? "" : "; blocks disagree");
    return 1;
  }
  if (!generation_pass) {
    std::fprintf(stderr,
                 "PERF GATE FAILED: user-parallel trace generation differs from "
                 "the serial walk (N=%zu, %lld slots)\n",
                 generation.users, static_cast<long long>(generation.slots));
    return 1;
  }
  std::printf(
      "perf gate passed (solver %.1fx >= %.1fx; ema N=1000 %s; 0 allocs/slot; "
      "campaign %.2fx%s; "
      "pool bit-identical to 1 thread; shared fault schedules bit-identical, one "
      "per key; service scale %s; "
      "telemetry observation-only, on/off %.3f slot path, %.3f pool; "
      "parallel trace generation bit-identical, %.2fx)\n",
      solver_results.front().speedup, kMinSpeedup,
      ema_gate_enforced ? "< 1 ms/slot" : "informational under REPRO_SLOTS",
      campaign.speedup,
      campaign_enforced ? " >= 3.0x" : ", informational under REPRO_SLOTS",
      service_enforced ? "within bounds" : "informational under REPRO_SLOTS",
      slot_telemetry_ratio, pool_telemetry_ratio, generation.speedup);
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
