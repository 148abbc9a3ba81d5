// RRC state machine and tail-energy accounting (Section III-C).
//
// After a transmission the radio stays in the high-power state until the T1
// inactivity timer fires, drops to the medium-power state until T2 fires, and
// only then reaches IDLE. Eq. 4 gives the cumulative energy burned during an
// idle gap of length t since the last transmission ended:
//
//   Etail(t) = Pd*t                          0 <= t < T1
//            = Pd*T1 + Pf*(t - T1)           T1 <= t < T1 + T2
//            = Pd*T1 + Pf*T2                 t >= T1 + T2
//
// Two accounting semantics are supported (RadioProfile::continuous_tail):
// the paper's Eq. 5 buckets every slot as either transmission (Eq. 3 only) or
// tail (Eq. 4 increment only); the continuous-time variant additionally
// charges the DCH tail for the post-transfer residue of transmitting slots
// (tau - d/v seconds), which is the more physical reading and is evaluated as
// an ablation.
#pragma once

#include <cstdint>

#include "radio/radio_profile.hpp"

namespace jstream {

/// RRC power states (3G names; LTE maps CONNECTED->kDch, IDLE->kIdle).
enum class RrcState { kDch, kFach, kIdle };

/// Closed-form cumulative tail energy (mJ) of an idle gap of length `t_s`
/// seconds since the last transmission ended (Eq. 4).
[[nodiscard]] double tail_energy_mj(const RadioProfile& profile, double t_s);

/// Tail energy (mJ) accrued during one slot of length `tau_s` for a radio
/// whose last transmission ended `idle_start_s` before the slot begins:
/// Etail(idle_start + tau) - Etail(idle_start).
[[nodiscard]] double slot_tail_energy_mj(const RadioProfile& profile,
                                         double idle_start_s, double tau_s);

/// One slot of an RrcStateMachine: the Eq. 4 tail energy it burned and the
/// states the radio began and ended it in.
struct RrcSlotStep {
  double tail_mj = 0.0;
  RrcState from = RrcState::kIdle;
  RrcState to = RrcState::kIdle;
};

/// Per-slot tally of RRC state changes over many machines, added to the
/// rrc.transitions.* counters by one flush() instead of one add per change.
class RrcTransitionTally {
 public:
  /// Counts the change from `from` to `to` (nothing when they are equal).
  void note(RrcState from, RrcState to) noexcept;

  /// Adds the non-zero counts to the telemetry counters and zeroes them.
  void flush() noexcept;

 private:
  std::int64_t idle_to_dch_ = 0;
  std::int64_t fach_to_dch_ = 0;
  std::int64_t dch_to_fach_ = 0;
  std::int64_t dch_to_idle_ = 0;
  std::int64_t fach_to_idle_ = 0;
};

/// Per-user RRC simulator advanced once per slot.
///
/// Transmission energy (Eq. 3) is accounted by the caller from the power
/// model; this machine accounts the Eq. 4 tail energy: both the idle residue
/// of transmitting slots (after the d/v active seconds) and whole idle slots.
class RrcStateMachine {
 public:
  /// A machine starts in IDLE with no tail to pay (nothing was transmitted
  /// yet, so there is no tail to decay from).
  explicit RrcStateMachine(RadioProfile profile);

  /// Advances one slot of length `tau_s` during which the radio actively
  /// transferred for `active_s` seconds (0 for an idle slot; the transfer is
  /// placed at the start of the slot). Returns the tail energy (mJ) burned
  /// during this slot; the caller accounts the transmission energy itself.
  /// Counts a state change in the rrc.transitions.* counters.
  double advance_slot(double active_s, double tau_s);

  /// advance_slot without the telemetry: also returns the states the slot
  /// began and ended in, so a caller stepping many machines counts their
  /// changes once per slot (RrcTransitionTally).
  [[nodiscard]] RrcSlotStep step(double active_s, double tau_s);

  /// Current state given the elapsed idle time.
  [[nodiscard]] RrcState state() const noexcept;

  /// Seconds since the last transmission ended.
  [[nodiscard]] double idle_time_s() const noexcept { return idle_s_; }

  /// True until the first transmission (no tail accrues in that period).
  [[nodiscard]] bool never_transmitted() const noexcept { return never_transmitted_; }

  [[nodiscard]] const RadioProfile& profile() const noexcept { return profile_; }

 private:
  RadioProfile profile_;
  double idle_s_ = 0.0;
  bool never_transmitted_ = true;
};

}  // namespace jstream
