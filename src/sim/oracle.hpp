// Offline energy oracle: an *upper bound* on the minimum achievable
// transmission energy E* of a scenario (the quantity Theorem 1's bounds are
// stated against), from a feasible offline schedule.
//
// With full knowledge of every user's signal trajectory, delivering a byte in
// slot n costs P(sig_i(n)) per KB, a byte of content at playback position t
// must arrive no later than its deadline (startup delay + t), and slots are
// capacity- and link-limited. Minimizing total cost is a transportation
// problem; the oracle solves it with a cheapest-(user,slot)-first greedy: a
// unit of content may be served in any slot up to its deadline, so scanning
// (user, slot) pairs by ascending per-KB price and assigning each user's
// latest-deadline-first pending units never strands demand unnecessarily.
// The result is a certified *feasible* schedule, hence an upper bound on the
// true optimum and a sound comparator for online schedulers; tail energy is
// accounted from the resulting transmission gaps (Eq. 4).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scenario.hpp"

namespace jstream {

/// Oracle schedule outcome.
struct OracleResult {
  double total_trans_mj = 0.0;
  double total_tail_mj = 0.0;
  std::vector<double> per_user_trans_mj;
  std::vector<double> per_user_tail_mj;
  std::int64_t horizon_slots = 0;  ///< slots the oracle scheduled over
  bool feasible = true;            ///< every unit met its deadline
  /// Units whose deadline window had no link/capacity room left (the online
  /// schedulers stall on these too); priced at their window's cheapest rate
  /// so the byte bill stays complete.
  std::int64_t stranded_units = 0;

  [[nodiscard]] double total_energy_mj() const noexcept {
    return total_trans_mj + total_tail_mj;
  }

  /// E* analogue normalized like RunMetrics::avg_energy_per_user_slot_mj
  /// (per user per playback slot).
  [[nodiscard]] double avg_energy_per_user_slot_mj(
      const std::vector<double>& session_playback_s) const;
};

/// Oracle parameters.
struct OracleSpec {
  /// Startup allowance: content at playback position t must arrive by slot
  /// startup_slots + floor(t / tau). One slot reproduces the simulator's
  /// cold-start (shards become usable the slot after delivery).
  std::int64_t startup_slots = 1;
};

/// Computes the offline schedule for `config`'s population (signals replayed
/// deterministically from the scenario seed). Throws jstream::Error when the
/// scenario itself is invalid.
[[nodiscard]] OracleResult offline_energy_bound(const ScenarioConfig& config,
                                                const OracleSpec& spec = {});

}  // namespace jstream
