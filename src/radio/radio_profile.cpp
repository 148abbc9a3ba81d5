#include "radio/radio_profile.hpp"

#include <cmath>

#include "common/error.hpp"

namespace jstream {

RadioProfile paper_3g_profile() {
  RadioProfile p;
  p.kind = RrcKind::kThreeState3G;
  p.name = "3g";
  p.p_dch_mw = 732.83;
  p.p_fach_mw = 388.88;
  p.t1_s = 3.29;
  p.t2_s = 4.02;
  return p;
}

RadioProfile lte_profile() {
  RadioProfile p;
  p.kind = RrcKind::kTwoStateLte;
  p.name = "lte";
  p.p_dch_mw = 1060.0;  // RRC_CONNECTED tail power
  p.p_fach_mw = 0.0;    // no intermediate state
  p.t1_s = 11.5;        // CONNECTED -> IDLE inactivity timer
  p.t2_s = 0.0;
  return p;
}

void validate(const RadioProfile& profile) {
  // Checked ahead of the range checks, which an infinity passes (and then
  // turns the run's energy into NaN or ends it after one slot) and which a
  // NaN fails under the wrong name.
  require(std::isfinite(profile.p_dch_mw), "P_DCH must be finite");
  require(std::isfinite(profile.p_fach_mw), "P_FACH must be finite");
  require(std::isfinite(profile.t1_s), "T1 must be finite");
  require(std::isfinite(profile.t2_s), "T2 must be finite");
  require(profile.p_dch_mw >= 0.0, "P_DCH must be non-negative");
  require(profile.p_fach_mw >= 0.0, "P_FACH must be non-negative");
  require(profile.t1_s >= 0.0, "T1 must be non-negative");
  require(profile.t2_s >= 0.0, "T2 must be non-negative");
  if (profile.kind == RrcKind::kTwoStateLte) {
    require(profile.t2_s == 0.0, "LTE profile must have t2 == 0");
  }
}

}  // namespace jstream
