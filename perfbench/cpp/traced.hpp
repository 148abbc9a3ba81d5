// Traced per-layer run. The benchmark's own code replays Framework::run_slot
// (and ServiceSimulator::step, Simulator::run) out of the layers' public
// functions, in the same order, and records a span around each call: layer,
// start, end, parent span and slot. Spans stay in memory; they are reduced
// to per-layer counts and self-times (a span minus its children) at the end.
//
// This is the only part of the benchmark that calls slot-path internals the
// ROADMAP plans to reshape (SlotContext::finalize, allocate_into, the
// EmaDpWorkspace counters), so it is built as its own program.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gateway/data_receiver.hpp"
#include "gateway/data_transmitter.hpp"
#include "gateway/fault_hook.hpp"
#include "gateway/info_collector.hpp"
#include "gateway/scheduler.hpp"
#include "radio/rrc.hpp"
#include "sim/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

/// A span's layer: the module whose public function it wraps.
enum class Layer : std::uint8_t {
  kSlot,               ///< one slot (or service step): the root of its layer spans
  kCell,               ///< one campaign cell: the parent of its slots
  kGatewayCollect,     ///< InfoCollector::collect_into (with the SoA rebuild)
  kGatewayApply,       ///< DataReceiver::begin_slot, DataTransmitter::apply_into
  kMediaBuffer,        ///< PlaybackBuffer::begin_slot / end_slot over the population
  kCoreAllocate,       ///< Scheduler::allocate_into of the EMA/RTMA family
  kBaselinesAllocate,  ///< Scheduler::allocate_into of the five baselines
  kSimFault,           ///< FaultInjector degrade + SoA refresh, reconcile
  kSimMetrics,         ///< MetricsCollector / ServiceMetricsCollector::record_slot
  kSessionBoundary,    ///< releases, arrival draws, admission, binds
  kTelemetry,          ///< run_slot's constraint-clip and RRC-transition records
};
inline constexpr std::size_t kLayerCount = 11;

/// Stable name of a layer, as in the spans file.
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t slot = -1;
  std::int32_t parent = -1;  ///< index into the same log, -1 for none
  Layer layer = Layer::kSlot;
};

/// In-memory span log of one thread.
class SpanLog {
 public:
  [[nodiscard]] std::int32_t open(Layer layer, std::int64_t slot, std::int32_t parent);
  void close(std::int32_t id);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Scoped span; a null log records nothing (warm-up slots).
class SpanScope {
 public:
  SpanScope(SpanLog* log, Layer layer, std::int64_t slot, std::int32_t parent)
      : log_(log), id_(log != nullptr ? log->open(layer, slot, parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::int32_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Per-layer reduction of span logs.
struct LayerTotals {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::int64_t, kLayerCount> spans{};
  std::int64_t slot_ns = 0;  ///< summed duration of the slot spans

  /// Adds every span of `log`; self-time is a span minus its direct children.
  void add(const SpanLog& log);
  [[nodiscard]] std::int64_t slots() const noexcept {
    return spans[static_cast<std::size_t>(Layer::kSlot)];
  }
  /// True when the slot spans' self-times plus their children's self-times
  /// add up to the slot spans' duration.
  [[nodiscard]] bool slot_time_accounted() const noexcept;
};

/// Counts the traced run reads at layer boundaries, summed over traced slots.
struct LayerCounts {
  std::int64_t dp_solves = 0;
  std::int64_t separable_hits = 0;
  std::int64_t memo_hits = 0;
  std::int64_t resumed_rows = 0;
  std::int64_t binds = 0;
  std::int64_t releases = 0;
  std::int64_t tracer_events = 0;
};

/// One traced round: its outputs (digested as the untraced round's are),
/// spans, counts and wall time.
struct TracedRound {
  Round round;                 ///< setup_s, timed_s, user_slots, digests, shape_errors
  std::vector<SpanLog> logs;   ///< one per slot loop (one per cell for the sweep)
  LayerCounts counts;
  double pool_idle_s = 0.0;    ///< sweep: worker time not covered by a cell
  std::uint64_t trace_hits = 0;  ///< sweep: trace-cache hits during the campaign
};

/// Traced round of the EMA or service workload (same inputs as run_round).
[[nodiscard]] TracedRound run_traced_round(Workload workload, std::uint64_t seed);

/// Traced campaign over a prepared sweep grid, through run_campaign_cells.
[[nodiscard]] TracedRound run_traced_sweep(const SweepSetup& setup);

}  // namespace perfbench
