#include "radio/rrc.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/registry.hpp"

namespace jstream {

namespace {

// Transition counters resolved once against the global registry.
struct RrcTelemetry {
  telemetry::Counter& idle_to_dch;
  telemetry::Counter& fach_to_dch;
  telemetry::Counter& dch_to_fach;
  telemetry::Counter& dch_to_idle;
  telemetry::Counter& fach_to_idle;

  static RrcTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static RrcTelemetry probes{registry.counter("rrc.transitions.idle_to_dch"),
                               registry.counter("rrc.transitions.fach_to_dch"),
                               registry.counter("rrc.transitions.dch_to_fach"),
                               registry.counter("rrc.transitions.dch_to_idle"),
                               registry.counter("rrc.transitions.fach_to_idle")};
    return probes;
  }
};

void flush_count(telemetry::Counter& counter, std::int64_t& count) noexcept {
  if (count == 0) return;
  counter.add(count);
  count = 0;
}

}  // namespace

double tail_energy_mj(const RadioProfile& profile, double t_s) {
  require(t_s >= 0.0, "idle time must be non-negative");
  const double in_dch = std::min(t_s, profile.t1_s);
  const double in_fach = std::clamp(t_s - profile.t1_s, 0.0, profile.t2_s);
  return profile.p_dch_mw * in_dch + profile.p_fach_mw * in_fach;
}

double slot_tail_energy_mj(const RadioProfile& profile, double idle_start_s,
                           double tau_s) {
  require(tau_s >= 0.0, "slot length must be non-negative");
  return tail_energy_mj(profile, idle_start_s + tau_s) -
         tail_energy_mj(profile, idle_start_s);
}

RrcStateMachine::RrcStateMachine(RadioProfile profile) : profile_(profile) {
  validate(profile_);
}

void RrcTransitionTally::note(RrcState from, RrcState to) noexcept {
  if (from == RrcState::kIdle && to == RrcState::kDch) ++idle_to_dch_;
  if (from == RrcState::kFach && to == RrcState::kDch) ++fach_to_dch_;
  if (from == RrcState::kDch && to == RrcState::kFach) ++dch_to_fach_;
  if (from == RrcState::kDch && to == RrcState::kIdle) ++dch_to_idle_;
  if (from == RrcState::kFach && to == RrcState::kIdle) ++fach_to_idle_;
}

void RrcTransitionTally::flush() noexcept {
  auto& probes = RrcTelemetry::instance();
  flush_count(probes.idle_to_dch, idle_to_dch_);
  flush_count(probes.fach_to_dch, fach_to_dch_);
  flush_count(probes.dch_to_fach, dch_to_fach_);
  flush_count(probes.dch_to_idle, dch_to_idle_);
  flush_count(probes.fach_to_idle, fach_to_idle_);
}

double RrcStateMachine::advance_slot(double active_s, double tau_s) {
  const RrcSlotStep stepped = step(active_s, tau_s);
  if (stepped.from != stepped.to && telemetry::enabled()) {
    RrcTransitionTally tally;
    tally.note(stepped.from, stepped.to);
    tally.flush();
  }
  return stepped.tail_mj;
}

RrcSlotStep RrcStateMachine::step(double active_s, double tau_s) {
  require(tau_s > 0.0, "slot length must be positive");
  require(active_s >= 0.0, "active time must be non-negative");
  RrcSlotStep stepped;
  stepped.from = state();
  if (active_s > 0.0) {
    never_transmitted_ = false;
    if (!profile_.continuous_tail) {
      // Eq. 5 semantics: a transmission slot carries no tail energy; the tail
      // clock starts at the slot boundary.
      idle_s_ = 0.0;
    } else {
      // Continuous-time Eq. 4: a fresh tail begins when the transfer ends;
      // its first tau - active seconds fall inside this slot.
      const double residue = std::max(tau_s - active_s, 0.0);
      idle_s_ = residue;
      stepped.tail_mj = slot_tail_energy_mj(profile_, 0.0, residue);
    }
  } else if (!never_transmitted_) {  // a never-promoted radio burns no tail
    stepped.tail_mj = slot_tail_energy_mj(profile_, idle_s_, tau_s);
    idle_s_ += tau_s;
  }
  stepped.to = state();
  return stepped;
}

RrcState RrcStateMachine::state() const noexcept {
  if (never_transmitted_) return RrcState::kIdle;
  if (idle_s_ < profile_.t1_s) return RrcState::kDch;
  if (profile_.kind == RrcKind::kTwoStateLte) return RrcState::kIdle;
  if (idle_s_ < profile_.t1_s + profile_.t2_s) return RrcState::kFach;
  return RrcState::kIdle;
}

}  // namespace jstream
