#include "core/ema.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/units.hpp"
#include "radio/rrc.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scoped_timer.hpp"

namespace jstream {

namespace {

struct EmaTelemetry {
  telemetry::Counter& allocations;
  telemetry::Histogram& solve_latency_us;
  telemetry::Histogram& queue_level_s;
  telemetry::Gauge& queue_max_s;
  telemetry::SlotTracer& tracer;

  static EmaTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    // Eq. 16 queues are seconds of rebuffering pressure; negative values mean
    // buffered surplus, so the buckets straddle zero.
    static const std::vector<double> queue_edges =
        telemetry::linear_buckets(-8.0, 0.5, 33);
    static EmaTelemetry probes{registry.counter("ema.allocations"),
                               registry.histogram("ema.solve_latency_us"),
                               registry.histogram("ema.queue_level_s", queue_edges),
                               registry.gauge("ema.queue.max_s"),
                               registry.tracer()};
    return probes;
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative tie margin of the separable fast path: decisions are taken
/// separably only when every per-user comparison clears this fraction of the
/// instance's total cost magnitude. The full DP's accumulated FP error is
/// bounded by ~n*eps*scale (~2e-13*scale at n=1000), so any allocation that
/// deviates from a margin-separated separable optimum costs strictly more in
/// the DP's own arithmetic too — the fast path returns exactly the DP's
/// allocation, not just one of equal cost. Near-tie instances fall back to
/// the full DP.
constexpr double kSeparableMarginRel = 1e-12;

/// Common validation for the DP entry points; returns the last reachable
/// column m_max = min(capacity, sum caps).
std::int64_t dp_columns(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                        std::int64_t capacity_units) {
  const std::size_t n = caps.size();
  require(costs.idle_cost.size() == n && costs.slope.size() == n &&
              costs.active_base.size() == n,
          "cost/cap size mismatch");
  require(capacity_units >= 0, "capacity must be non-negative");
  std::int64_t cap_sum = 0;
  for (std::int64_t c : caps) {
    require(c >= 0, "caps must be non-negative");
    cap_sum += c;
  }
  return std::min(capacity_units, cap_sum);
}

/// Separable exact fast path. When the sum of unconstrained per-user optima
/// fits under m_max, constraint (2) is slack at the optimum, the DP
/// decomposes per user, and the answer is O(N). Every decision must clear a
/// tie margin (see kSeparableMarginRel) or the caller falls back to the full
/// DP, so the result — including all tie-breaks — is exactly the DP's.
/// Writes into `out` (pre-zeroed); on false the caller must re-zero `out`.
bool try_separable(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                   std::int64_t m_max, std::vector<std::int64_t>& out) {
  const std::size_t n = caps.size();
  const double* JSTREAM_RESTRICT idle = costs.idle_cost.data();
  const double* JSTREAM_RESTRICT base = costs.active_base.data();
  const double* JSTREAM_RESTRICT slope = costs.slope.data();
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    scale += std::abs(idle[i]) + std::abs(base[i]) +
             std::abs(slope[i]) * as_double(caps[i]);
  }
  if (scale == 0.0) {
    // Every cost is exactly zero: all allocations tie, and the DP's
    // tie-breaks (strict-improvement scans, smallest argmin M) resolve to the
    // all-idle decision.
    return true;
  }
  const double margin = kSeparableMarginRel * scale;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cap = caps[i];
    if (cap == 0) continue;
    const std::int64_t phi = slope[i] < 0.0 ? cap : 1;
    const double active = base[i] + slope[i] * as_double(phi);
    const double gain = idle[i] - active;
    // The activate/idle decision and — when more than one phi is feasible —
    // the endpoint choice must both be margin-robust.
    if (!(std::abs(gain) > margin)) return false;
    if (cap > 1 && !(std::abs(slope[i]) > margin)) return false;
    if (gain > 0.0) {
      out[i] = phi;
      total += phi;
      if (total > m_max) return false;  // capacity binds: not separable
    }
  }
  return true;
}

/// The phi = 0 branch of columns [first, last]: the user takes nothing.
void fill_idle(const double* JSTREAM_RESTRICT prev, double* JSTREAM_RESTRICT cur,
               std::int32_t* JSTREAM_RESTRICT g, std::int32_t first,
               std::int32_t last, double idle) {
  for (std::int32_t m = first; m <= last; ++m) {
    cur[m] = prev[m] + idle;
    g[m] = 0;
  }
}

/// Columns [first, last] whose window minimum sits at j* = m - phi for one
/// fixed phi. Each column keeps the phi = 0 branch unless the candidate
/// prev[j*] + base + slope*phi is strictly below it — the deque's expression
/// and comparison, written branch-free so the span vectorises.
void fill_fixed_phi(const double* JSTREAM_RESTRICT prev, double* JSTREAM_RESTRICT cur,
                    std::int32_t* JSTREAM_RESTRICT g, std::int32_t first,
                    std::int32_t last, std::int32_t phi, double idle, double base,
                    double slope) {
  const double active = slope * as_double(phi);
  for (std::int32_t m = first; m <= last; ++m) {
    const double stay = prev[m] + idle;
    const double candidate = prev[m - phi] + base + active;
    const bool take = candidate < stay;
    cur[m] = take ? candidate : stay;
    g[m] = take ? phi : 0;
  }
}

/// Columns [first, last] whose window minimum sits at one fixed j* = bottom,
/// so phi = m - bottom grows along the span.
void fill_fixed_j(const double* JSTREAM_RESTRICT prev, double* JSTREAM_RESTRICT cur,
                  std::int32_t* JSTREAM_RESTRICT g, std::int32_t first,
                  std::int32_t last, std::int32_t bottom, double idle, double base,
                  double slope) {
  const double from = prev[bottom] + base;
  for (std::int32_t m = first; m <= last; ++m) {
    const std::int32_t phi = m - bottom;
    const double stay = prev[m] + idle;
    const double candidate = from + slope * as_double(phi);
    const bool take = candidate < stay;
    cur[m] = take ? candidate : stay;
    g[m] = take ? phi : 0;
  }
}

/// Valley test for a row with cap >= 2. Writes the keys the deque would push
/// for columns 1..reach, k[j] = prev[j] - slope*j, over j <= q =
/// min(prev_reach, reach - 1), and returns p when they fall (>=) to k[p] and
/// then rise strictly (>): the deque's largest-index window minimum at
/// column m is then clamp(p, m - cap, m - 1). Returns -1 otherwise, or when
/// any key is NaN (it fails both comparisons).
///
/// Windows of the first rows also cover columns past prev_reach, which no
/// earlier user can fill: their prev entries are +inf or NaN, so their keys
/// are too, and pushing such a key never pops one below +inf. So while
/// k[q] < +inf the deque's front stays on a reachable column, which every
/// window holds (reach <= prev_reach + cap). An overflowed k[q] = +inf with
/// a finite prev[q] would be popped, and sends the row to the deque.
std::int32_t valley_bottom(const double* JSTREAM_RESTRICT prev,
                           double* JSTREAM_RESTRICT key, std::int32_t prev_reach,
                           std::int32_t reach, double slope) {
  const std::int32_t q = std::min(prev_reach, reach - 1);
  for (std::int32_t j = 0; j <= q; ++j) key[j] = prev[j] - slope * as_double(j);
  if (q < reach - 1 && !(key[q] < kInf)) return -1;
  // The falls must be exactly the first p steps and the rises the rest; a
  // NaN step is neither, so it leaves a rise short.
  std::int64_t falls = 0;
  for (std::int32_t j = 0; j < q; ++j) falls += key[j] >= key[j + 1];
  const std::int32_t p = checked_i32(falls);
  std::int64_t rises = 0;
  for (std::int32_t j = p; j < q; ++j) rises += key[j + 1] > key[j];
  return rises == q - p ? p : -1;
}

/// The monotone-deque row for columns [1, reach]: sliding-window minimum over
/// j in [m - cap, m - 1] of key(j) = prev[j] - slope*j; the phi >= 1
/// candidate at column m is then prev[j*] + base + slope*(m - j*). Ties keep
/// the larger j (smaller phi), matching the reference DP's ascending-phi
/// strict-improvement scan. Keys live in dq_key parallel to the index deque
/// so the push comparison needs no indirect load.
void deque_row(const double* JSTREAM_RESTRICT prev, double* JSTREAM_RESTRICT cur,
               std::int32_t* JSTREAM_RESTRICT g, std::int32_t reach, std::int32_t cap,
               double idle, double base, double slope,
               double* JSTREAM_RESTRICT dq_key, std::int32_t* JSTREAM_RESTRICT dq) {
  std::int32_t head = 0;
  std::int32_t tail = 0;
  double prev_m = prev[0];  // rolls forward: the push key at column m uses prev[m-1]
  for (std::int32_t m = 1; m <= reach; ++m) {
    const double key = prev_m - slope * as_double(m - 1);
    while (tail > head && key <= dq_key[tail - 1]) --tail;
    dq_key[tail] = key;
    dq[tail] = m - 1;
    ++tail;
    // The window lower bound m - cap advances by one per column, so at most
    // one eviction per step; j = m-1 (just pushed, >= m - cap) survives it,
    // so the deque is never left empty.
    if (dq[head] < m - cap) ++head;
    prev_m = prev[m];
    double best = prev_m + idle;
    std::int32_t best_phi = 0;
    const std::int32_t j = dq[head];
    const std::int32_t phi = m - j;
    const double candidate = prev[j] + base + slope * as_double(phi);
    if (candidate < best) {
      best = candidate;
      best_phi = phi;
    }
    cur[m] = best;
    g[m] = best_phi;
  }
}

/// One DP row over columns [0, last]. Users [0, i) fill at most prev_reach
/// units and users [0, i] at most reach = min(last, prev_reach + cap), so
/// the active branches run on [1, reach] only; every column past reach gets
/// the phi = 0 shift, which is what a full-width row decides there too (its
/// window holds only unfillable prev entries, and no candidate built on them
/// compares below the shift). `cap` is already clamped to `last`, which
/// changes no window. Returns true when the row ran the deque.
///
/// A row whose keys pass valley_bottom is filled as three spans — j* = m - 1
/// while m - 1 <= p, then j* = p, then j* = m - cap — with the deque's own
/// candidate expression, so it produces the deque's bits with no
/// data-dependent branch. Under Eq. 5 every user's cost is convex in phi, so
/// every row of a real EMA slot takes this path; rows that fail the test
/// (continuous-tail costs, floating-point near-ties) run the deque.
bool dp_row(const double* JSTREAM_RESTRICT prev, double* JSTREAM_RESTRICT cur,
            std::int32_t* JSTREAM_RESTRICT g, std::int32_t last,
            std::int32_t prev_reach, std::int32_t reach, std::int32_t cap, double idle,
            double base, double slope, double* JSTREAM_RESTRICT key,
            std::int32_t* JSTREAM_RESTRICT dq) {
  cur[0] = prev[0] + idle;
  g[0] = 0;
  if (cap == 0) {
    // The user can receive nothing: the row is a pure idle shift.
    fill_idle(prev, cur, g, 1, last, idle);
    return false;
  }
  // A window of one holds only j = m - 1, so the first span is the whole row.
  const std::int32_t p =
      cap == 1 ? reach : valley_bottom(prev, key, prev_reach, reach, slope);
  const bool deque = p < 0;
  if (deque) {
    deque_row(prev, cur, g, reach, cap, idle, base, slope, key, dq);
  } else {
    const std::int32_t falling_end = std::min(p + 1, reach);
    const std::int32_t bottom_end = std::min(p + cap, reach);
    fill_fixed_phi(prev, cur, g, 1, falling_end, 1, idle, base, slope);
    fill_fixed_j(prev, cur, g, falling_end + 1, bottom_end, p, idle, base, slope);
    fill_fixed_phi(prev, cur, g, bottom_end + 1, reach, cap, idle, base, slope);
  }
  fill_idle(prev, cur, g, reach + 1, last, idle);
  return deque;
}

/// Final-row argmin (smallest M on ties) + Algorithm 2 steps 15-18 backtrack.
void backtrack(const double* final_row, const std::int32_t* choice, std::size_t n,
               std::size_t width, std::vector<std::int64_t>& out) {
  std::size_t m = 0;
  for (std::size_t candidate = 1; candidate < width; ++candidate) {
    if (final_row[candidate] < final_row[m]) m = candidate;
  }
  for (std::size_t i = n; i-- > 0;) {
    const auto phi = std::int64_t{choice[i * width + m]};
    out[i] = phi;
    m -= checked_size(phi);
  }
}

}  // namespace

EmaSlotCosts compute_ema_slot_costs(const SlotContext& ctx,
                                    const LyapunovQueues& queues, double v_weight) {
  EmaSlotCosts costs;
  compute_ema_slot_costs(ctx, queues, v_weight, costs);
  return costs;
}

void compute_ema_slot_costs(const SlotContext& ctx, const LyapunovQueues& queues,
                            double v_weight, EmaSlotCosts& out) {
  require(queues.size() == ctx.user_count(), "queue/user count mismatch");
  require(ctx.radio != nullptr && ctx.power != nullptr && ctx.throughput != nullptr,
          "context missing models");
  const std::size_t n = ctx.user_count();
  // The cost build streams over the SoA mirror; a stale mirror means the
  // snapshot producer skipped SlotContext::finalize().
  require(ctx.soa.size() == n, "SlotContext::finalize() not called before allocate");
  const SlotSoa& soa = ctx.soa;
  out.idle_cost.resize(n);
  out.active_base.resize(n);
  out.slope.resize(n);
  const RadioProfile& radio = *ctx.radio;
  const double tau = ctx.params.tau_s;
  const double delta = ctx.params.delta_kb;
  const bool continuous = radio.continuous_tail;
  const double p_dch = radio.p_dch_mw;
  for (std::size_t i = 0; i < n; ++i) {
    // Snapshot producers cache the Definition 3/4 fits per user per slot; a
    // zero rate means the producer predates the cached-field contract.
    require(soa.throughput_kbps[i] > 0.0, "slot snapshot missing cached link rates");
    // Tail increment of staying idle this slot (Eq. 4); a radio that never
    // transmitted has no tail to pay.
    double tail_mj = 0.0;
    if (soa.rrc_promoted(i)) {
      tail_mj = slot_tail_energy_mj(radio, soa.rrc_idle_s[i], tau);
    }
    out.idle_cost[i] = v_weight * tail_mj;
    // Active-slot energy mirrors the transmitter's accounting: under Eq. 5 a
    // transmission slot costs P(sig)*phi*delta only; under continuous-time
    // Eq. 4 it additionally pays DCH power for the post-transfer residue,
    // i.e. Pd*tau + phi*delta*(P - Pd/v).
    double energy_per_unit = soa.energy_per_kb[i] * delta;
    out.active_base[i] = 0.0;
    if (continuous) {
      out.active_base[i] = v_weight * p_dch * tau;
      energy_per_unit -= p_dch / soa.throughput_kbps[i] * delta;
    }
    const double playback_per_unit = delta / soa.bitrate_kbps[i];
    out.slope[i] = v_weight * energy_per_unit - queues.value(i) * playback_per_unit;
  }
}

Allocation solve_min_cost_dp(const EmaSlotCosts& costs,
                             std::span<const std::int64_t> caps,
                             std::int64_t capacity_units) {
  EmaDpWorkspace ws;
  Allocation alloc;
  solve_min_cost_dp(costs, caps, capacity_units, ws, alloc);
  return alloc;
}

void EmaDpWorkspace::reserve(std::size_t users, std::int64_t capacity_units) {
  const std::size_t width = checked_size(std::max<std::int64_t>(capacity_units, 0)) + 1;
  prev.reserve(width);
  cur.reserve(width);
  window_key.reserve(width);
  deque.reserve(width);
  choice.reserve(users * width);
}

void solve_min_cost_dp(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                       std::int64_t capacity_units, EmaDpWorkspace& ws,
                       Allocation& out) {
  const std::size_t n = caps.size();
  const std::int64_t m_max = dp_columns(costs, caps, capacity_units);
  out.units.assign(n, 0);
  // Nothing can be granted, so the all-idle allocation is the only feasible
  // point; skip the DP tables entirely.
  if (n == 0 || m_max == 0) return;
  require(m_max < std::numeric_limits<std::int32_t>::max(),
          "capacity exceeds DP index range");

  if (try_separable(costs, caps, m_max, out.units)) {
    ++ws.separable_hits;
    return;
  }
  std::fill(out.units.begin(), out.units.end(), 0);

  const std::size_t width = checked_size(m_max) + 1;
  ws.prev.resize(width);
  ws.cur.resize(width);
  ws.window_key.resize(width);
  ws.deque.resize(width);
  // g(i, M): best phi_i when the first i+1 users received M units in total.
  ws.choice.resize(n * width);
  double* prev = ws.prev.data();
  double* cur = ws.cur.data();
  std::fill_n(prev, width, kInf);
  prev[0] = 0.0;

  ++ws.dp_solves;
  const std::int32_t last = checked_i32(m_max);
  std::int32_t reach = 0;  // the most units users [0, i) can fill
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t cap = checked_i32(std::min(caps[i], m_max));
    const std::int32_t prev_reach = reach;
    reach = std::min(last, prev_reach + cap);
    if (dp_row(prev, cur, &ws.choice[i * width], last, prev_reach, reach, cap,
               costs.idle_cost[i], costs.active_base[i], costs.slope[i],
               ws.window_key.data(), ws.deque.data())) {
      ++ws.deque_rows;
    }
    std::swap(prev, cur);
  }
  backtrack(prev, ws.choice.data(), n, width, out.units);
}

Allocation solve_min_cost_dp_reference(const EmaSlotCosts& costs,
                                       std::span<const std::int64_t> caps,
                                       std::int64_t capacity_units) {
  const std::size_t n = caps.size();
  const std::int64_t m_max = dp_columns(costs, caps, capacity_units);
  Allocation alloc = Allocation::zeros(n);
  if (n == 0) return alloc;
  const auto width = checked_size(m_max) + 1;

  std::vector<double> prev(width, kInf);
  std::vector<double> cur(width, kInf);
  // g(i, M): best phi_i when the first i+1 users received M units in total.
  std::vector<std::int32_t> choice(n * width, 0);
  prev[0] = 0.0;

  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cap = caps[i];
    const double idle = costs.idle_cost[i];
    const double base = costs.active_base[i];
    const double slope = costs.slope[i];
    std::int32_t* g = &choice[i * width];
    for (std::size_t m = 0; m < width; ++m) {
      // phi = 0 branch.
      double best = prev[m] + idle;
      std::int32_t best_phi = 0;
      // phi >= 1 branches.
      const auto phi_max = std::min(cap, checked_index(m));
      for (std::int64_t phi = 1; phi <= phi_max; ++phi) {
        const double candidate = prev[m - checked_size(phi)] + base +
                                 slope * as_double(phi);
        if (candidate < best) {
          best = candidate;
          best_phi = checked_i32(phi);
        }
      }
      cur[m] = best;
      g[m] = best_phi;
    }
    std::swap(prev, cur);
  }

  // D_N = argmin_M a[N][M], then backtrack (Algorithm 2 steps 15-18).
  std::size_t m = 0;
  for (std::size_t candidate = 1; candidate < width; ++candidate) {
    if (prev[candidate] < prev[m]) m = candidate;
  }
  for (std::size_t i = n; i-- > 0;) {
    const std::int32_t phi = choice[i * width + m];
    alloc.units[i] = phi;
    m -= checked_size(phi);
  }
  return alloc;
}

EmaScheduler::EmaScheduler(EmaConfig config) : config_(config) {
  require(std::isfinite(config_.v_weight), "V must be finite");
  require(config_.v_weight > 0.0, "V must be positive");
}

void EmaScheduler::reset(std::size_t users) { queues_.reset(users); }

void EmaScheduler::reset_user(std::size_t user) { queues_.reset_user(user); }

// jstream: hot-path — per-slot EMA allocation; the solver below it (separable
// fast path, deque DP) inherits hotness through the same-TU call graph.
void EmaScheduler::allocate_into(const SlotContext& ctx, Allocation& out) {
  require(queues_.size() == ctx.user_count(),
          "EMA not reset for this user count");
  const std::size_t n = ctx.user_count();
  // The caps span below reads the SoA mirror directly, so this function needs
  // its own stale-mirror guard (the one in compute_ema_slot_costs is not a
  // contract for this frame).
  require(ctx.soa.size() == n, "SlotContext::finalize() not called before allocate");
  compute_ema_slot_costs(ctx, queues_, config_.v_weight, costs_ws_);
  adjust_costs(ctx, costs_ws_);
  // The SoA mirror already holds the caps contiguously — no per-slot copy.
  const std::span<const std::int64_t> caps{ctx.soa.alloc_cap_units.data(), n};
  {
    telemetry::ScopedTimer timer(EmaTelemetry::instance().solve_latency_us);
    solve_slot(costs_ws_, caps, ctx.capacity_units, out);
  }

  // Eq. 16 queue update with the decided allocation; frozen once a session
  // has no content left (it can never receive again, so the queue carries no
  // scheduling signal).
  const SlotSoa& soa = ctx.soa;
  for (std::size_t i = 0; i < n; ++i) {
    if (!soa.needs_data(i)) continue;
    const double kb =
        std::min(ctx.params.units_to_kb(out.units[i]), soa.remaining_kb[i]);
    queues_.update(i, ctx.params.tau_s, kb / soa.bitrate_kbps[i]);
  }

  // Observation-only, once per slot: the worst post-update Eq. 16 queue (the
  // user under the most rebuffering pressure) feeds the queue histogram, the
  // gauge and the trace.
  if (telemetry::enabled() && queues_.size() > 0) {
    auto& probes = EmaTelemetry::instance();
    probes.allocations.add();
    double max_queue = -std::numeric_limits<double>::infinity();
    for (const double level : queues_.values()) max_queue = std::max(max_queue, level);
    probes.queue_level_s.observe(max_queue);
    probes.queue_max_s.set(max_queue);
    probes.tracer.record(ctx.slot, -1, telemetry::TraceEventKind::kQueueLevel,
                         max_queue);
  }
}

void EmaScheduler::adjust_costs(const SlotContext& /*ctx*/, EmaSlotCosts& /*costs*/) {
  // Algorithm 2 solves the unmodified Eq. 3-5 cost model; predictive
  // subclasses perturb the slopes here.
}

void EmaScheduler::solve_slot(const EmaSlotCosts& costs,
                              std::span<const std::int64_t> caps,
                              std::int64_t capacity_units, Allocation& out) {
  // The capacity bounds every DP's column count, so once the buffers are
  // reserved for it no later solve at that capacity grows one.
  dp_ws_.reserve(caps.size(), capacity_units);
  solve_min_cost_dp(costs, caps, capacity_units, dp_ws_, out);
}

}  // namespace jstream
