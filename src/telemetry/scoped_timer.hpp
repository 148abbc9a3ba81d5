// RAII latency probe: measures the lifetime of a scope and feeds it into a
// latency Histogram in microseconds.
//
//   {
//     telemetry::ScopedTimer timer(registry.histogram("scheduler.decision_latency_us"));
//     scheduler->allocate_into(ctx, alloc);
//   }  // <- observation recorded here
//
// When telemetry is disabled at construction time the timer never reads the
// clock, so the probe costs one branch on the hot path.
#pragma once

#include <chrono>

#include "telemetry/metric.hpp"

namespace jstream::telemetry {

/// Observes the enclosing scope's wall time (microseconds) into a Histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink) noexcept
      : sink_(enabled() ? &sink : nullptr),
        start_(sink_ != nullptr ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{}) {}

  ~ScopedTimer() {
    if (sink_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    sink_->observe(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace jstream::telemetry
