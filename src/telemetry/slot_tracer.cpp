#include "telemetry/slot_tracer.hpp"

#include <algorithm>
#include <new>
#include <tuple>

#include "common/error.hpp"
#include "common/units.hpp"
#include "telemetry/metric.hpp"

namespace jstream::telemetry {

const char* to_string(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kGrant: return "grant";
    case TraceEventKind::kClipLink: return "clip_link";
    case TraceEventKind::kClipCapacity: return "clip_capacity";
    case TraceEventKind::kRrcTransition: return "rrc_transition";
    case TraceEventKind::kQueueLevel: return "queue_level";
    case TraceEventKind::kAdmit: return "admit";
    case TraceEventKind::kReject: return "reject";
  }
  return "unknown";
}

SlotTracer::SlotTracer(std::size_t capacity) : capacity_(capacity) {
  require(capacity >= 1, "slot tracer capacity must be at least 1");
}

SlotTracer::~SlotTracer() {
  for (auto& ring : rings_) delete[] ring.value.entries.load(std::memory_order_relaxed);
}

void SlotTracer::record(std::int64_t slot, std::int32_t user, TraceEventKind kind,
                        double value) noexcept {
  if (!enabled()) return;
  const std::size_t shard = this_thread_shard();
  if (shard == kSharedShard) {
    const std::lock_guard lock(shared_mutex_);
    write(rings_[shard].value, slot, user, kind, value);
  } else {
    write(rings_[shard].value, slot, user, kind, value);
  }
}

// One writer per ring (the shard's owner, or the shared shard's lock
// holder), so the ring's own fields are updated by plain loads and stores.
void SlotTracer::write(Ring& ring, std::int64_t slot, std::int32_t user,
                       TraceEventKind kind, double value) noexcept {
  Entry* entries = ring.entries.load(std::memory_order_relaxed);
  if (entries == nullptr) {
    // First event of this shard. An allocation failure drops the event's
    // payload but still counts it.
    entries = new (std::nothrow) Entry[capacity_];
    ring.entries.store(entries, std::memory_order_release);
  }
  // One clock read per slot per shard orders the shards' events.
  if (ring.stamp_slot.load(std::memory_order_relaxed) != slot) {
    ring.stamp_slot.store(slot, std::memory_order_relaxed);
    ring.stamp.store(order_stamp(), std::memory_order_relaxed);
  }
  const std::int64_t position = ring.recorded.load(std::memory_order_relaxed);
  const std::size_t cursor = ring.cursor.load(std::memory_order_relaxed);
  if (entries != nullptr) {
    // Seqlock write: mark the entry busy, then release-store each field, so
    // a reader that sees any new field also sees the busy mark after it.
    Entry& entry = entries[cursor];
    entry.seq.store(0, std::memory_order_relaxed);
    entry.slot.store(slot, std::memory_order_release);
    entry.stamp.store(ring.stamp.load(std::memory_order_relaxed), std::memory_order_release);
    entry.value.store(value, std::memory_order_release);
    entry.user.store(user, std::memory_order_release);
    entry.kind.store(kind, std::memory_order_release);
    entry.seq.store(position + 1, std::memory_order_release);
  }
  ring.cursor.store(cursor + 1 == capacity_ ? 0 : cursor + 1, std::memory_order_relaxed);
  ring.recorded.store(position + 1, std::memory_order_release);
}

std::vector<SlotTraceEvent> SlotTracer::snapshot() const {
  struct Ordered {
    std::int64_t stamp;
    std::size_t shard;
    std::int64_t position;
    SlotTraceEvent event;
  };
  std::vector<Ordered> merged;
  const auto capacity = checked_index(capacity_);
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    const Ring& ring = rings_[shard].value;
    const std::int64_t recorded = ring.recorded.load(std::memory_order_acquire);
    const Entry* entries = ring.entries.load(std::memory_order_acquire);
    if (entries == nullptr) continue;
    for (std::int64_t position = std::max<std::int64_t>(0, recorded - capacity);
         position < recorded; ++position) {
      const Entry& entry = entries[checked_size(position % capacity)];
      // Seqlock read: keep the event only if no write touched the entry
      // between the two sequence loads. The acquire field loads order the
      // second sequence load after them.
      const std::int64_t seq = entry.seq.load(std::memory_order_acquire);
      if (seq != position + 1) continue;
      Ordered item{entry.stamp.load(std::memory_order_acquire), shard, position,
                   SlotTraceEvent{entry.slot.load(std::memory_order_acquire),
                                  entry.user.load(std::memory_order_acquire),
                                  entry.kind.load(std::memory_order_acquire),
                                  entry.value.load(std::memory_order_acquire)}};
      if (entry.seq.load(std::memory_order_relaxed) != seq) continue;
      merged.push_back(item);
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Ordered& a, const Ordered& b) {
    return std::tie(a.stamp, a.shard, a.position) < std::tie(b.stamp, b.shard, b.position);
  });
  const std::size_t first = merged.size() > capacity_ ? merged.size() - capacity_ : 0;
  std::vector<SlotTraceEvent> events;
  events.reserve(merged.size() - first);
  for (std::size_t i = first; i < merged.size(); ++i) events.push_back(merged[i].event);
  return events;
}

std::size_t SlotTracer::size() const {
  std::int64_t retained = 0;
  for (const auto& ring : rings_) {
    if (ring.value.entries.load(std::memory_order_acquire) == nullptr) continue;
    retained += std::min(ring.value.recorded.load(std::memory_order_relaxed),
                         checked_index(capacity_));
  }
  return std::min(checked_size(retained), capacity_);
}

std::int64_t SlotTracer::total_recorded() const {
  std::int64_t total = 0;
  for (const auto& ring : rings_) total += ring.value.recorded.load(std::memory_order_relaxed);
  return total;
}

void SlotTracer::clear() {
  for (auto& padded : rings_) {
    Ring& ring = padded.value;
    ring.recorded.store(0, std::memory_order_relaxed);
    ring.cursor.store(0, std::memory_order_relaxed);
    ring.stamp_slot.store(std::numeric_limits<std::int64_t>::min(),
                          std::memory_order_relaxed);
    Entry* entries = ring.entries.load(std::memory_order_acquire);
    if (entries == nullptr) continue;
    for (std::size_t i = 0; i < capacity_; ++i) {
      entries[i].seq.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace jstream::telemetry
