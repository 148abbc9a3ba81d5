#include "radio/signal_trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "telemetry/registry.hpp"

namespace jstream {

namespace {

struct SignalTraceTelemetry {
  telemetry::Counter& blocks_filled;

  static SignalTraceTelemetry& instance() {
    static SignalTraceTelemetry probes{
        telemetry::global_registry().counter("trace.blocks_filled")};
    return probes;
  }
};

}  // namespace

SignalTraceSet::SignalTraceSet(std::size_t users, std::int64_t slots, Uninitialized)
    : users_(users), slots_(slots) {
  require(users > 0, "trace set needs at least one user");
  require(slots > 0, "trace set needs at least one slot");
  signal_ = std::make_unique_for_overwrite<double[]>(users_ * checked_size(slots_));
}

SignalTraceSet::SignalTraceSet(std::size_t users, std::int64_t slots)
    : SignalTraceSet(users, slots, Uninitialized{}) {
  std::fill_n(signal_.get(), users_ * checked_size(slots_), 0.0);
}

std::shared_ptr<const SignalTraceSet> SignalTraceSet::generate(
    std::span<SignalModel* const> models, std::int64_t slots, ThreadPool& pool) {
  auto set = std::shared_ptr<SignalTraceSet>(
      new SignalTraceSet(models.size(), slots, Uninitialized{}));
  parallel_for(pool, models.size(),
               [&](std::size_t user) { set->fill_user(user, *models[user]); });
  return set;
}

std::shared_ptr<const SignalTraceSet> SignalTraceSet::fill_on_read(
    std::vector<std::unique_ptr<SignalModel>> models, std::int64_t slots) {
  require(std::ranges::none_of(models, [](const auto& model) { return model == nullptr; }),
          "fill-on-read trace set needs a model per user");
  auto set = std::shared_ptr<SignalTraceSet>(
      new SignalTraceSet(models.size(), slots, Uninitialized{}));
  set->fill_ = std::make_unique<FillState>();
  set->fill_->models = std::move(models);
  return set;
}

void SignalTraceSet::fill_user(std::size_t user, SignalModel& model) {
  require(user < users_, "trace user index out of range");
  walk_rows(user, model, 0, slots_);
}

void SignalTraceSet::walk_rows(std::size_t user, SignalModel& model, std::int64_t begin,
                               std::int64_t end) const {
  // Strided slot-major writes: each row is written once, reads are the hot
  // path, so the layout favours InfoCollector's per-slot row scans.
  double* matrix = signal_.get();
  for (std::int64_t slot = begin; slot < end; ++slot) {
    matrix[index(user, slot)] = model.signal_dbm(slot);
  }
}

void SignalTraceSet::fill_through(std::int64_t slot) const {
  FillState& fill = *fill_;
  const std::lock_guard lock(fill.mutex);
  const std::int64_t begin = fill.frontier.load(std::memory_order_relaxed);
  const std::int64_t end = std::min(slots_, (slot / kFillBlockSlots + 1) * kFillBlockSlots);
  if (end <= begin) return;  // filled by another reader while this one waited
  for (std::size_t user = 0; user < users_; ++user) {
    walk_rows(user, *fill.models[user], begin, end);
  }
  if (end == slots_) fill.models.clear();  // complete: no walk is left to take
  fill.frontier.store(end, std::memory_order_release);
  if (telemetry::enabled()) {
    SignalTraceTelemetry::instance().blocks_filled.add(
        (end - begin + kFillBlockSlots - 1) / kFillBlockSlots);
  }
}

double SignalTraceSet::signal_dbm(std::size_t user, std::int64_t slot) const {
  require(user < users_ && slot >= 0 && slot < slots_, "trace index out of range");
  return row(slot)[user];
}

const double* SignalTraceSet::signal_data() const {
  if (fill_ != nullptr && filled_slots() < slots_) fill_through(slots_ - 1);
  return signal_.get();
}

std::size_t SignalTraceSet::total_bytes() const noexcept {
  return estimate_bytes(users_, slots_);
}

std::size_t SignalTraceSet::estimate_bytes(std::size_t users,
                                           std::int64_t slots) noexcept {
  if (slots <= 0) return 0;
  return sizeof(double) * users * checked_size(slots);
}

}  // namespace jstream
