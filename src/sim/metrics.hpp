// Metric collection for simulation runs: the paper's PE (Eq. 6), PC (Eq. 9),
// the Jain fairness index over per-slot shares F_i = d_i / d_need(i)
// (Section VI-A), and the transmission/tail energy split of Fig. 5b.
#pragma once

#include <cstdint>
#include <vector>

#include "gateway/data_transmitter.hpp"
#include "gateway/slot_context.hpp"

namespace jstream {

/// Aggregates for one user over a whole run.
struct UserTotals {
  double trans_mj = 0.0;
  double tail_mj = 0.0;
  double rebuffer_s = 0.0;
  double delivered_kb = 0.0;
  std::int64_t session_slots = 0;  ///< Gamma_i: slots until playback finished
  std::int64_t tx_slots = 0;       ///< slots in which this user transmitted
  bool playback_finished = false;

  [[nodiscard]] double energy_mj() const noexcept { return trans_mj + tail_mj; }
};

/// Results of one simulation run.
struct RunMetrics {
  std::int64_t slots_run = 0;
  std::vector<UserTotals> per_user;

  // Per-slot series (kept when MetricsCollector is constructed with
  // keep_series = true).
  std::vector<double> slot_fairness;       ///< Jain index over needy users
  std::vector<double> slot_energy_mj;      ///< total energy across users
  std::vector<double> rebuffer_samples_s;  ///< c_i(n) for users mid-playback

  /// Sum of E_i(n) over all users and slots, mJ.
  [[nodiscard]] double total_energy_mj() const noexcept;
  [[nodiscard]] double total_trans_mj() const noexcept;
  [[nodiscard]] double total_tail_mj() const noexcept;

  /// Sum of c_i(n) over all users and slots, seconds.
  [[nodiscard]] double total_rebuffer_s() const noexcept;

  /// PE analogue normalized per session slot: mean over users of
  /// (total energy of user i) / Gamma_i.
  [[nodiscard]] double avg_energy_per_user_slot_mj() const noexcept;

  /// Tail-energy component of the same average (Fig. 5b's black bar).
  [[nodiscard]] double avg_tail_per_user_slot_mj() const noexcept;

  /// PC analogue: mean over users of (total rebuffering of i) / Gamma_i.
  [[nodiscard]] double avg_rebuffer_per_user_slot_s() const noexcept;

  /// Mean per-slot Jain fairness index.
  [[nodiscard]] double mean_fairness() const noexcept;

  /// Fraction of users whose playback completed within the horizon.
  [[nodiscard]] double completion_rate() const noexcept;
};

/// One ended session of a service-mode run (kept when the collector is
/// constructed with keep_records = true).
struct SessionRecord {
  std::size_t user_slot = 0;        ///< population slot id the session occupied
  std::int64_t arrival_index = -1;  ///< global arrival index k (-1 if unknown)
  std::int64_t start_slot = 0;
  std::int64_t end_slot = 0;  ///< release slot (completion incl. tail drain, or abort)
  double delivered_kb = 0.0;
  double rebuffer_s = 0.0;
  double energy_mj = 0.0;
  bool completed = false;  ///< false = aborted mid-stream
};

/// Steady-state metrics of a service-mode run: session flow counters over the
/// whole horizon, time averages over the post-warmup window, and per-session
/// distributions over the sessions that started after warmup and ended inside
/// the horizon. Distinct from RunMetrics — that aggregates population slots
/// (which service mode recycles across sessions); this aggregates sessions.
struct ServiceMetrics {
  std::int64_t slots_run = 0;
  std::int64_t warmup_slots = 0;   ///< slots excluded from steady-state averages
  std::size_t capacity_slots = 0;  ///< population slots the gateway owned

  // Session flow over the whole run.
  std::int64_t offered = 0;    ///< arrivals generated by the arrival process
  std::int64_t admitted = 0;   ///< accepted and bound to a population slot
  std::int64_t rejected = 0;   ///< refused by the admission controller
  std::int64_t blocked = 0;    ///< accepted but no free population slot
  std::int64_t completed = 0;  ///< played out fully (incl. tail drain)
  std::int64_t aborted = 0;    ///< departed mid-stream
  std::int64_t in_flight_at_end = 0;

  // Post-warmup time averages.
  std::int64_t measured_slots = 0;
  double concurrency_sum = 0.0;       ///< sum over measured slots of active sessions
  std::size_t peak_concurrency = 0;   ///< max active sessions over measured slots
  double rebuffer_sum_s = 0.0;        ///< total stall over measured slots
  std::int64_t active_user_slots = 0; ///< sum of active sessions per measured slot
  double energy_sum_mj = 0.0;         ///< total energy over measured slots

  // Per-session sums over measured sessions (started at/after warmup, ended
  // inside the horizon).
  std::int64_t sessions_measured = 0;
  double session_rebuffer_sum_s = 0.0;
  double session_energy_sum_mj = 0.0;
  double session_delivered_sum_kb = 0.0;
  std::int64_t session_length_slots_sum = 0;

  std::vector<SessionRecord> records;  ///< ended sessions (keep_records only)

  /// Time-average concurrency over the measured window.
  [[nodiscard]] double mean_concurrency() const noexcept;
  /// admitted / offered (1 when nothing was offered).
  [[nodiscard]] double admit_rate() const noexcept;
  /// completed / (completed + aborted) over ended sessions.
  [[nodiscard]] double session_completion_rate() const noexcept;
  /// Stall seconds per active user-slot in the measured window — the
  /// steady-state PC analogue, well-defined even when overload keeps
  /// sessions from ever completing.
  [[nodiscard]] double mean_rebuffer_per_user_slot_s() const noexcept;
  /// Energy per active user-slot in the measured window, mJ.
  [[nodiscard]] double mean_energy_per_user_slot_mj() const noexcept;
  /// Mean total stall per measured session, seconds.
  [[nodiscard]] double mean_session_rebuffer_s() const noexcept;
  /// Mean total energy per measured session, mJ.
  [[nodiscard]] double mean_session_energy_mj() const noexcept;
  /// Mean measured-session length, slots.
  [[nodiscard]] double mean_session_slots() const noexcept;
};

/// Streams service-mode events and slots into ServiceMetrics. The
/// ServiceSimulator drives it: one record_slot per executed slot, plus the
/// session lifecycle calls at event boundaries. All per-user accumulators are
/// sized at construction — quiescent slots allocate nothing (records, when
/// kept, grow only at session end, an event boundary).
class ServiceMetricsCollector {
 public:
  ServiceMetricsCollector(std::size_t capacity_slots, std::int64_t warmup_slots,
                          bool keep_records = false);

  void on_offered() noexcept { ++metrics_.offered; }
  void on_rejected() noexcept { ++metrics_.rejected; }
  void on_blocked() noexcept { ++metrics_.blocked; }

  /// A session was admitted and bound to population slot `user_slot`.
  void on_session_start(std::size_t user_slot, std::int64_t slot,
                        std::int64_t arrival_index);

  /// The session on `user_slot` ended (released) at `end_slot`.
  void on_session_end(std::size_t user_slot, std::int64_t end_slot,
                      double delivered_kb, bool completed);

  /// Records one executed slot: `active_sessions` bound sessions, per-user
  /// stall/energy from the outcome.
  void record_slot(std::int64_t slot, std::size_t active_sessions,
                   const SlotOutcome& outcome);

  /// Finalizes (collector may not be reused after). `in_flight` is the number
  /// of sessions still bound at the horizon.
  [[nodiscard]] ServiceMetrics finish(std::size_t in_flight);

 private:
  ServiceMetrics metrics_;
  bool keep_records_;
  // Per-population-slot accumulators for the currently bound session.
  std::vector<double> session_rebuffer_s_;
  std::vector<double> session_energy_mj_;
  std::vector<std::int64_t> session_start_;
  std::vector<std::int64_t> session_arrival_index_;
};

/// Streams per-slot outcomes into RunMetrics.
class MetricsCollector {
 public:
  explicit MetricsCollector(std::size_t users, bool keep_series = true);

  /// Records one executed slot. `ctx` must be the context the slot ran with
  /// and `outcome` the transmitter's result.
  void record_slot(const SlotContext& ctx, const SlotOutcome& outcome);

  /// Finalizes and returns the metrics (collector may not be reused after).
  [[nodiscard]] RunMetrics finish();

 private:
  RunMetrics metrics_;
  bool keep_series_;
  std::vector<double> shares_;  ///< per-slot fairness workspace (reused)
};

}  // namespace jstream
