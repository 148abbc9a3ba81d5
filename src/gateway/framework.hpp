// The streaming-optimization framework facade (Figure 1 of the paper).
//
// Wires the four components — Data Receiver, Information Collector,
// Scheduler, Data Transmitter — and runs them in the paper's per-slot order:
//
//   1. receiver.begin_slot        (reset backhaul budget)
//   2. buffer.begin_slot per user (Eq. 7: fold in the previous shard)
//   3. collector.collect          (cross-layer snapshot -> SlotContext)
//   4. scheduler.allocate         (RTM or EM mode decision)
//   5. transmitter.apply          (validate + execute, energy accounting)
//   6. buffer.end_slot per user   (advance playback)
//
// The operating mode (RTM vs EM) is simply which Scheduler is installed; the
// factory in src/baselines and the algorithms in src/core provide them.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "analysis/invariant_checker.hpp"
#include "gateway/data_receiver.hpp"
#include "gateway/data_transmitter.hpp"
#include "gateway/fault_hook.hpp"
#include "gateway/info_collector.hpp"
#include "gateway/scheduler.hpp"
#include "net/base_station.hpp"
#include "radio/rrc.hpp"

namespace jstream {

/// Scheduler operating mode (Section III-A).
enum class SchedulingMode {
  kRebufferMinimization,  ///< RTM: min PC s.t. PE <= Phi
  kEnergyMinimization,    ///< EM:  min PE s.t. PC <= Omega
  kBaseline,              ///< comparison policies
};

/// Gateway framework instance for one base station.
class Framework {
 public:
  /// Takes ownership of the scheduler. `users` sizes the receiver queues.
  Framework(InfoCollector collector, std::unique_ptr<Scheduler> scheduler,
            SchedulingMode mode, std::size_t users,
            double backhaul_kbps = std::numeric_limits<double>::infinity());

  /// Runs one slot over all endpoints; returns per-user outcomes. Buffers'
  /// begin/end_slot are handled internally. The returned reference points at
  /// framework-owned storage that the next run_slot call overwrites — the
  /// whole slot path (snapshot, decision, outcome) reuses warm buffers and
  /// performs zero heap allocations in steady state.
  [[nodiscard]] const SlotOutcome& run_slot(std::int64_t slot,
                                            std::span<UserEndpoint> endpoints,
                                            const BaseStation& bs);

  /// Also exposes the context/allocation/outcome of the last slot.
  [[nodiscard]] const SlotContext& last_context() const noexcept { return last_ctx_; }
  [[nodiscard]] const Allocation& last_allocation() const noexcept { return last_alloc_; }
  [[nodiscard]] const SlotOutcome& last_outcome() const noexcept { return last_outcome_; }

  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] SchedulingMode mode() const noexcept { return mode_; }
  [[nodiscard]] DataReceiver& receiver() noexcept { return receiver_; }
  [[nodiscard]] const InfoCollector& collector() const noexcept { return collector_; }

  /// The paper-invariant validator attached to this framework. Active only
  /// while analysis::validation_enabled(); see docs/STATIC_ANALYSIS.md.
  [[nodiscard]] const analysis::InvariantChecker& validator() const noexcept {
    return validator_;
  }

  /// Attaches a degraded-cell hook (non-owning; the caller keeps it alive
  /// across run_slot calls — see docs/ROBUSTNESS.md). Null detaches. With no
  /// hook attached the slot path is the unfaulted pipeline, bit for bit.
  void attach_fault_hook(SlotFaultHook* hook) noexcept { fault_hook_ = hook; }
  [[nodiscard]] const SlotFaultHook* fault_hook() const noexcept { return fault_hook_; }

 private:
  InfoCollector collector_;
  std::unique_ptr<Scheduler> scheduler_;
  SchedulingMode mode_;
  DataReceiver receiver_;
  DataTransmitter transmitter_;
  SlotContext last_ctx_;
  Allocation last_alloc_;
  SlotOutcome last_outcome_;
  analysis::InvariantChecker validator_;
  SlotFaultHook* fault_hook_ = nullptr;  ///< degraded-cell seam (sim/fault.hpp)
  std::vector<RrcState> rrc_before_;  ///< per-slot RRC snapshot, filled only while validating
};

}  // namespace jstream
