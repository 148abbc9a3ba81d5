// Radio resource control (RRC) parameter sets.
//
// 3G devices demote CELL_DCH -> CELL_FACH after an inactivity timer T1 and
// CELL_FACH -> IDLE after a further T2 (Section III-C). LTE has a single
// RRC_CONNECTED -> RRC_IDLE demotion. Both are represented with one profile
// type: LTE uses t2 = 0 and an unused FACH power.
#pragma once

#include <string>

namespace jstream {

/// Which RRC topology the profile describes.
enum class RrcKind {
  kThreeState3G,  ///< CELL_DCH / CELL_FACH / IDLE
  kTwoStateLte,   ///< RRC_CONNECTED / RRC_IDLE
};

/// Inactivity-timer and state-power parameters of one radio technology.
struct RadioProfile {
  RrcKind kind = RrcKind::kThreeState3G;
  std::string name = "3g";
  double p_dch_mw = 732.83;   ///< high-power state (CELL_DCH / RRC_CONNECTED)
  double p_fach_mw = 388.88;  ///< medium-power state (CELL_FACH); unused for LTE
  double t1_s = 3.29;         ///< DCH->FACH (or CONNECTED->IDLE) inactivity timer
  double t2_s = 4.02;         ///< FACH->IDLE inactivity timer; 0 for LTE

  /// Tail accounting semantics. false (default) follows the paper's Eq. 5
  /// exactly: a slot is either a transmission slot (Eq. 3 energy only) or an
  /// idle slot (Eq. 4 tail increment only). true applies Eq. 4 in continuous
  /// time: a transmitting slot also pays the DCH tail for the part of the
  /// slot after the transfer's d/v active seconds (more physical; exposed as
  /// an ablation, see bench_ablation_rrc).
  bool continuous_tail = false;

  /// Total tail duration after the last transmission.
  [[nodiscard]] double tail_duration_s() const noexcept { return t1_s + t2_s; }

  /// Maximum tail energy of one idle period (Eq. 4 with t -> infinity), mJ.
  [[nodiscard]] double max_tail_energy_mj() const noexcept {
    return p_dch_mw * t1_s + p_fach_mw * t2_s;
  }

  /// Average power over the tail window, mW: the "tail energy in a slot" of
  /// Eq. 12's P_tail term (a slot somewhere inside the tail costs this much
  /// in expectation). Zero when there is no tail.
  [[nodiscard]] double mean_tail_power_mw() const noexcept {
    const double duration = tail_duration_s();
    return duration > 0.0 ? max_tail_energy_mj() / duration : 0.0;
  }
};

/// The paper's 3G parameters (Section VI, from PerES [29] / [19]):
/// P_DCH = 732.83 mW, P_FACH = 388.88 mW, T1 = 3.29 s, T2 = 4.02 s.
[[nodiscard]] RadioProfile paper_3g_profile();

/// An LTE profile following the measurements of Huang et al. [11]:
/// RRC_CONNECTED tail power ~1060 mW with an ~11.5 s inactivity timer.
[[nodiscard]] RadioProfile lte_profile();

/// Validates a profile (finite, non-negative powers/timers); throws
/// jstream::Error naming the first bad field.
void validate(const RadioProfile& profile);

}  // namespace jstream
