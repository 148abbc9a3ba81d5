// Bounded per-slot event trace for scheduler debugging.
//
// The SlotTracer is a fixed-capacity ring buffer of (slot, user, kind,
// value) tuples recording scheduler-internal decisions: allocations granted,
// grants clipped by constraint (1) (per-user link cap) or constraint (2)
// (base-station capacity), RRC state transitions, Lyapunov virtual-queue
// levels (Eq. 16), and Eq. 12 threshold admissions/rejections. When the ring
// is full the oldest events are overwritten, so memory stays bounded no
// matter how long a run is; `total_recorded()` still counts every event.
//
// Each thread shard (telemetry/shard.hpp) has its own ring of `capacity`
// events, allocated on the shard's first event, so recording from
// thread_pool workers takes no lock: a leased shard has one writer, and only
// writers of the shared last shard serialize on a mutex. Events carry the
// order_stamp() read at the first event of their slot in their shard, so
// snapshot() merges the shards by (stamp, shard, position): exact order
// within a thread, slot-granular order across threads. It returns the
// newest `capacity` events of that merge. Recording is a no-op while
// telemetry is disabled.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "telemetry/shard.hpp"

namespace jstream::telemetry {

/// What a trace event describes. `value` is kind-specific (see to_string).
enum class TraceEventKind : std::uint8_t {
  kGrant,          ///< units granted to a user this slot (value = units)
  kClipLink,       ///< grant saturated constraint (1) (value = units granted)
  kClipCapacity,   ///< slot exhausted constraint (2) (value = total units, user = -1)
  kRrcTransition,  ///< RRC state change (value = encoded to-state, see rrc.hpp)
  kQueueLevel,     ///< Lyapunov queue level in seconds (Eq. 16)
  kAdmit,          ///< user passed the Eq. 12 signal threshold (value = sig dBm)
  kReject,         ///< user filtered by the Eq. 12 threshold (value = sig dBm)
};

/// Stable lower_snake_case label (used by both renderers).
[[nodiscard]] const char* to_string(TraceEventKind kind) noexcept;

/// One recorded scheduler event.
struct SlotTraceEvent {
  std::int64_t slot = 0;
  std::int32_t user = -1;  ///< -1 for slot-wide events
  TraceEventKind kind = TraceEventKind::kGrant;
  double value = 0.0;
};

/// Fixed-capacity ring buffer of SlotTraceEvents, one ring per thread shard.
class SlotTracer {
 public:
  /// `capacity` must be >= 1; defaults to a few thousand events, enough to
  /// hold the tail of a long run without unbounded growth.
  explicit SlotTracer(std::size_t capacity = 4096);
  ~SlotTracer();

  SlotTracer(const SlotTracer&) = delete;
  SlotTracer& operator=(const SlotTracer&) = delete;

  /// Records one event into the calling thread's ring, overwriting its
  /// oldest event when full. Safe from any thread; no-op while telemetry is
  /// disabled.
  void record(std::int64_t slot, std::int32_t user, TraceEventKind kind,
              double value) noexcept;

  /// The newest `capacity` events over all shards, oldest first.
  [[nodiscard]] std::vector<SlotTraceEvent> snapshot() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const;

  /// Every event ever recorded, including overwritten ones.
  [[nodiscard]] std::int64_t total_recorded() const;

  /// Drops all retained events and zeroes total_recorded. Call it between
  /// runs: an event recorded concurrently may survive the clear.
  void clear();

 private:
  /// One ring slot, published seqlock-style so snapshot() never returns a
  /// half-written event.
  struct Entry {
    std::atomic<std::int64_t> seq{0};  ///< position + 1 once written, 0 while writing
    std::atomic<std::int64_t> slot{0};
    std::atomic<std::int64_t> stamp{0};
    std::atomic<double> value{0.0};
    std::atomic<std::int32_t> user{-1};
    std::atomic<TraceEventKind> kind{TraceEventKind::kGrant};
  };

  struct Ring {
    std::atomic<Entry*> entries{nullptr};  ///< `capacity_` entries, allocated on first event
    std::atomic<std::int64_t> recorded{0};  ///< events recorded here since clear()
    std::atomic<std::size_t> cursor{0};     ///< next write position (recorded % capacity_)
    std::atomic<std::int64_t> stamp_slot{std::numeric_limits<std::int64_t>::min()};
    std::atomic<std::int64_t> stamp{0};     ///< order_stamp() of slot `stamp_slot`
  };

  void write(Ring& ring, std::int64_t slot, std::int32_t user, TraceEventKind kind,
             double value) noexcept;

  std::size_t capacity_;
  std::array<Padded<Ring>, kShardCount> rings_;
  std::mutex shared_mutex_;  ///< serializes writers of the shared shard
};

}  // namespace jstream::telemetry
