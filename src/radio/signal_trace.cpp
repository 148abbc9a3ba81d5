#include "radio/signal_trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace jstream {

SignalTraceSet::SignalTraceSet(std::size_t users, std::int64_t slots, Uninitialized)
    : users_(users), slots_(slots) {
  require(users > 0, "trace set needs at least one user");
  require(slots > 0, "trace set needs at least one slot");
  signal_ = std::make_unique_for_overwrite<double[]>(users_ * checked_size(slots_));
  signal_view_ = signal_.get();
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

std::shared_ptr<const SignalTraceSet> SignalTraceSet::adopt_mapping(
    std::size_t users, std::int64_t slots, std::shared_ptr<const void> keepalive,
    const double* signal) {
  require(users > 0 && slots > 0, "mapped trace set needs positive dimensions");
  require(keepalive != nullptr, "mapped trace set needs a backing owner");
  require(signal != nullptr, "mapped trace set needs its signal matrix");
  auto set = std::shared_ptr<SignalTraceSet>(new SignalTraceSet());
  set->users_ = users;
  set->slots_ = slots;
  set->signal_view_ = signal;
  set->keepalive_ = std::move(keepalive);
  return set;
}

void SignalTraceSet::fill_user(std::size_t user, SignalModel& model) {
  require(!mapped(), "mapped trace sets are immutable");
  require(user < users_, "trace user index out of range");
  // Strided slot-major writes: generation is one-time, reads are the hot
  // path, so the layout favours InfoCollector's per-slot row scans.
  for (std::int64_t slot = 0; slot < slots_; ++slot) {
    signal_[index(user, slot)] = model.signal_dbm(slot);
  }
}

double SignalTraceSet::signal_dbm(std::size_t user, std::int64_t slot) const {
  require(user < users_ && slot >= 0 && slot < slots_, "trace index out of range");
  return signal_view_[index(user, slot)];
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
