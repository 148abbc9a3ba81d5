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
  const std::size_t cells = users_ * checked_size(slots_);
  signal_ = std::make_unique_for_overwrite<double[]>(cells);
  throughput_ = std::make_unique_for_overwrite<double[]>(cells);
  energy_ = std::make_unique_for_overwrite<double[]>(cells);
  signal_view_ = signal_.get();
  throughput_view_ = throughput_.get();
  energy_view_ = energy_.get();
}

SignalTraceSet::SignalTraceSet(std::size_t users, std::int64_t slots)
    : SignalTraceSet(users, slots, Uninitialized{}) {
  const std::size_t cells = users_ * checked_size(slots_);
  std::fill_n(signal_.get(), cells, 0.0);
  std::fill_n(throughput_.get(), cells, 0.0);
  std::fill_n(energy_.get(), cells, 0.0);
}

std::shared_ptr<const SignalTraceSet> SignalTraceSet::generate(
    std::span<SignalModel* const> models, std::int64_t slots, const LinkModel& link,
    ThreadPool& pool) {
  require(link.throughput != nullptr && link.power != nullptr,
          "link model must be complete");
  auto set = std::shared_ptr<SignalTraceSet>(
      new SignalTraceSet(models.size(), slots, Uninitialized{}));
  parallel_for(pool, models.size(),
               [&](std::size_t user) { set->fill_user(user, *models[user]); });
  set->derive_link(link, pool);
  return set;
}

std::shared_ptr<const SignalTraceSet> SignalTraceSet::adopt_mapping(
    std::size_t users, std::int64_t slots, std::shared_ptr<const void> keepalive,
    const double* signal, const double* throughput, const double* energy) {
  require(users > 0 && slots > 0, "mapped trace set needs positive dimensions");
  require(keepalive != nullptr, "mapped trace set needs a backing owner");
  require(signal != nullptr && throughput != nullptr && energy != nullptr,
          "mapped trace set needs all three matrices");
  auto set = std::shared_ptr<SignalTraceSet>(new SignalTraceSet());
  set->users_ = users;
  set->slots_ = slots;
  set->signal_view_ = signal;
  set->throughput_view_ = throughput;
  set->energy_view_ = energy;
  set->keepalive_ = std::move(keepalive);
  // Persisted payloads carry the derived matrices; a mapped set is complete.
  set->link_derived_ = true;
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

void SignalTraceSet::derive_link(const LinkModel& link) {
  require(!mapped(), "mapped trace sets are immutable");
  require(link.throughput != nullptr && link.power != nullptr,
          "link model must be complete");
  for (std::size_t slot = 0; slot < checked_size(slots_); ++slot) derive_slot(link, slot);
  link_derived_ = true;
}

void SignalTraceSet::derive_link(const LinkModel& link, ThreadPool& pool) {
  require(!mapped(), "mapped trace sets are immutable");
  require(link.throughput != nullptr && link.power != nullptr,
          "link model must be complete");
  // Whole slot rows per index: chunks are contiguous row ranges, so two
  // threads share a cache line only where their ranges meet.
  parallel_for(pool, checked_size(slots_),
               [&](std::size_t slot) { derive_slot(link, slot); });
  link_derived_ = true;
}

void SignalTraceSet::derive_slot(const LinkModel& link, std::size_t slot) {
  const ThroughputModel& throughput = *link.throughput;
  const PowerModel& power = *link.power;
  const std::size_t end = (slot + 1) * users_;
  for (std::size_t i = slot * users_; i < end; ++i) {
    throughput_[i] = throughput.throughput_kbps(signal_[i]);
    energy_[i] = power.energy_per_kb(signal_[i]);
  }
}

double SignalTraceSet::signal_dbm(std::size_t user, std::int64_t slot) const {
  require(user < users_ && slot >= 0 && slot < slots_, "trace index out of range");
  return signal_view_[index(user, slot)];
}

double SignalTraceSet::throughput_kbps(std::size_t user, std::int64_t slot) const {
  require(user < users_ && slot >= 0 && slot < slots_, "trace index out of range");
  require(link_derived_, "link quantities not derived yet");
  return throughput_view_[index(user, slot)];
}

double SignalTraceSet::energy_per_kb(std::size_t user, std::int64_t slot) const {
  require(user < users_ && slot >= 0 && slot < slots_, "trace index out of range");
  require(link_derived_, "link quantities not derived yet");
  return energy_view_[index(user, slot)];
}

std::size_t SignalTraceSet::total_bytes() const noexcept {
  return estimate_bytes(users_, slots_);
}

std::size_t SignalTraceSet::estimate_bytes(std::size_t users,
                                           std::int64_t slots) noexcept {
  if (slots <= 0) return 0;
  return 3 * sizeof(double) * users * checked_size(slots);
}

}  // namespace jstream
