// EMA — Energy Minimization Algorithm (Algorithm 2, Section V).
//
// Minimizes the average energy PE subject to the rebuffering bound PC <= Omega
// (Eq. 13-14) via Lyapunov drift-plus-penalty: each slot solves
//
//   min sum_i f(i, phi_i),
//   f(i, phi) = V * E_i(n) + PC_i(n) * (tau - t_i(n)),   t_i = delta*phi/p_i
//
// subject to constraints (1) and (2), where E_i is the Eq. 3 transmission
// energy for phi >= 1 and the Eq. 4 tail increment for phi = 0, and PC_i is
// the Eq. 16 virtual rebuffering queue. V trades energy against rebuffering
// (Theorem 1: PE <= E* + B/V, PC <= (B + V*E*)/eps).
//
// The per-slot problem is a grouped knapsack. The paper's DP (Algorithm 2
// steps 3-18) is O(N * M * phi_max); because each user's active cost is
// linear in phi, the inner phi-loop is a sliding-window minimum
//
//   min_{1 <= phi <= cap} prev[m - phi] + slope*phi
//     = slope*m + min_{m - cap <= j <= m - 1} (prev[j] - slope*j),
//
// so the row is solvable in O(M) with a monotone deque. `solve_min_cost_dp`
// is the production exact solver (docs/PERFORMANCE.md, sections 1-2):
//
//   * a tie-margin-guarded separable fast path: when every user's
//     unconstrained optimum fits under the capacity — the common case at
//     large N — the coupled DP provably decomposes per user, O(N) total;
//   * otherwise the O(N * M) DP, streaming over cache-line-aligned SoA
//     lanes (common/simd.hpp), one row per user:
//     - Reachable columns. Users [0, i] can fill at most
//       min(M, sum_{k<=i} cap_k) units, so a row's active branches stop
//       there; every later column takes the phi = 0 shift, which is what a
//       full-width row decides there too.
//     - Valley rows. A row first computes its window keys
//       k[j] = prev[j] - slope*j with the deque's expression and checks,
//       with the deque's comparisons (>= then >; a NaN fails both), that
//       they fall to some k[p] and then rise strictly. Then the deque's
//       largest-index window minimum at column m is exactly
//       clamp(p, m - cap, m - 1), and the row is three branch-free,
//       vectorised spans (j* = m - 1, p, m - cap) that evaluate the deque's
//       own candidate prev[j*] + base + slope*phi. Same comparisons, same
//       tie-break, same expression: the same bits. Under Eq. 5 every
//       user's cost is convex in phi (cost(1) - cost(0) = slope - idle <=
//       slope), the DP row is then convex and so are its keys: every cap >= 2
//       row of the perfbench ema-congested-n100 and faultsweep-n40 EMA slots
//       is a valley row.
//     - Deque rows. A row that fails the check — continuous-tail Eq. 4
//       costs make the first unit dearer than the rest; floating-point
//       near-ties — runs the monotone deque unchanged.
//       EmaDpWorkspace::deque_rows counts them.
//
// The paper-literal triple loop is kept as `solve_min_cost_dp_reference`, the
// differential oracle: tests/core/test_ema_simd.cpp checks cost equality on
// randomized instances with forced exact ties and unit equality on tie-free
// ones, and unit equality with a verbatim copy of the deque-only solver on
// 22,300 instances, ties and non-finite costs included. Theorem 1's
// PE <= E* + B/V needs exactly this per-slot minimiser.
//
// EmaFastScheduler in ema_fast.hpp solves the same slot problem with a
// slope-greedy heuristic (ablation; see DESIGN.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "core/lyapunov.hpp"
#include "gateway/scheduler.hpp"
#include "common/units.hpp"

namespace jstream {

/// EMA configuration.
struct EmaConfig {
  /// Lyapunov penalty weight V (1/mJ scale). Larger V favors energy saving
  /// over rebuffering (Section V). The default keeps the average rebuffering
  /// near the default strategy's level on the paper scenario (beta ~ 1); use
  /// calibrate_v_for_rebuffer to target a specific bound.
  double v_weight = 0.05;
};

/// Per-user costs of the slot problem, with the common PC_i*tau term dropped
/// (it does not affect the argmin). The cost of transmitting is linear in phi
/// under both tail-accounting semantics (see radio/rrc.hpp):
///   cost(0)        = idle_cost[i] = V * E_tail_slot(i)
///   cost(phi >= 1) = active_base[i] + slope[i]*phi
/// with Eq. 5 accounting: active_base = 0,
///   slope = V*P(sig_i)*delta - PC_i*delta/p_i;
/// with continuous-time Eq. 4: active_base = V*Pd*tau,
///   slope = V*delta*(P(sig_i) - Pd/v(sig_i)) - PC_i*delta/p_i.
/// The three arrays are cache-line-aligned SoA lanes so the DP row setup and
/// the separable fast path stream over them linearly.
struct EmaSlotCosts {
  simd::AlignedVec<double> idle_cost;
  simd::AlignedVec<double> active_base;
  simd::AlignedVec<double> slope;
};

/// Evaluates the reduced per-user cost of allocating `phi` units.
[[nodiscard]] inline double ema_cost(const EmaSlotCosts& costs, std::size_t user,
                                     std::int64_t phi) noexcept {
  return phi == 0 ? costs.idle_cost[user]
                  : costs.active_base[user] + costs.slope[user] * as_double(phi);
}

/// Builds the slot costs from the cross-layer snapshot and the current queues.
/// Reads the SlotSoa lanes; the producer must have called ctx.finalize().
[[nodiscard]] EmaSlotCosts compute_ema_slot_costs(const SlotContext& ctx,
                                                  const LyapunovQueues& queues,
                                                  double v_weight);

/// Buffer-reusing variant: overwrites `out`, recycling its vectors.
void compute_ema_slot_costs(const SlotContext& ctx, const LyapunovQueues& queues,
                            double v_weight, EmaSlotCosts& out);

/// Reusable scratch for solve_min_cost_dp. A long-lived caller
/// (EmaScheduler, the perf gate) keeps one workspace so the steady-state
/// solve performs no heap allocation; buffers only ever grow.
struct EmaDpWorkspace {
  simd::AlignedVec<double> prev;        ///< DP row for users [0, i)
  simd::AlignedVec<double> cur;         ///< DP row including user i
  simd::AlignedVec<double> window_key;  ///< sliding-window keys prev[j] - slope*j
  std::vector<std::int32_t> deque;      ///< monotone deque (indices into window_key)
  std::vector<std::int32_t> choice;     ///< g(i, M): best phi_i given M total units

  /// Grows every buffer to hold a DP over `users` users and up to
  /// `capacity_units` units (the solve's column bound m_max never exceeds
  /// the capacity), so later solves at that size never reallocate. Reserves
  /// only: pages are touched when a DP actually writes them.
  void reserve(std::size_t users, std::int64_t capacity_units);

  // --- telemetry-visible counters (reset by the owner if desired) --------
  std::int64_t separable_hits = 0; ///< solves answered by the separable path
  std::int64_t dp_solves = 0;      ///< solves that ran DP rows
  std::int64_t deque_rows = 0;     ///< cap >= 2 DP rows that failed the valley test
  /// Never incremented; kept at 0 for perfbench/cpp/traced.cpp, which reads them.
  std::int64_t memo_hits = 0;
  std::int64_t resumed_rows = 0;
};

/// Exact minimizer of sum_i cost(i, phi_i) s.t. phi_i in [0, caps[i]] and
/// sum phi_i <= capacity_units (Algorithm 2's problem). Ties resolve to the
/// smallest total M and, per user, the smallest phi of the window minimum.
[[nodiscard]] Allocation solve_min_cost_dp(const EmaSlotCosts& costs,
                                           std::span<const std::int64_t> caps,
                                           std::int64_t capacity_units);

/// Workspace variant: solves into `out` using `ws` scratch; allocation-free
/// once both have grown to the instance size.
void solve_min_cost_dp(const EmaSlotCosts& costs, std::span<const std::int64_t> caps,
                       std::int64_t capacity_units, EmaDpWorkspace& ws,
                       Allocation& out);

/// The paper-literal O(N * M * phi_max) DP (Algorithm 2 steps 3-18), kept as
/// the differential-testing oracle for the fast solvers and as the baseline
/// the perf regression gate measures speedup against.
[[nodiscard]] Allocation solve_min_cost_dp_reference(const EmaSlotCosts& costs,
                                                     std::span<const std::int64_t> caps,
                                                     std::int64_t capacity_units);

/// Algorithm 2 of the paper, with the exact DP slot solver.
///
/// The scheduler owns per-instance workspaces (slot costs, DP scratch) so the
/// steady-state allocate_into path performs zero heap allocations.
class EmaScheduler : public Scheduler {
 public:
  explicit EmaScheduler(EmaConfig config = {});

  [[nodiscard]] std::string name() const override { return "ema"; }
  void reset(std::size_t users) override;
  void reset_user(std::size_t user) override;
  void allocate_into(const SlotContext& ctx, Allocation& out) override;

  [[nodiscard]] const LyapunovQueues& queues() const noexcept { return queues_; }
  [[nodiscard]] const EmaConfig& config() const noexcept { return config_; }

  /// Exposes the Eq. 16 queues to the paper-invariant validator.
  [[nodiscard]] std::span<const double> virtual_queues() const override {
    return queues_.values();
  }

  /// The exact solver's path counters (separable-path solves, DP solves) —
  /// for benches and tests.
  [[nodiscard]] const EmaDpWorkspace& dp_workspace() const noexcept { return dp_ws_; }

 protected:
  /// Cost-model extension point, called between compute_ema_slot_costs and
  /// solve_slot with the same slot snapshot. The base scheduler leaves the
  /// costs untouched (the paper's Algorithm 2); PredictiveEmaScheduler adds
  /// its predicted-price deferral term here. Overrides must keep the per-user
  /// cost linear in phi (mutate idle_cost/active_base/slope only) so every
  /// slot solver — DP or greedy — remains applicable, and must not
  /// touch the Eq. 16 queue update that follows the solve.
  virtual void adjust_costs(const SlotContext& ctx, EmaSlotCosts& costs);

  /// Slot-problem solver; EmaFastScheduler overrides with the greedy solver.
  /// Writes the decision into `out` (storage recycled by the caller).
  virtual void solve_slot(const EmaSlotCosts& costs,
                          std::span<const std::int64_t> caps,
                          std::int64_t capacity_units, Allocation& out);

 private:
  EmaConfig config_;
  LyapunovQueues queues_;
  EmaSlotCosts costs_ws_;
  EmaDpWorkspace dp_ws_;
};

}  // namespace jstream
