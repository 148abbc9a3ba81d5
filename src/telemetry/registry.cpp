#include "telemetry/registry.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace jstream::telemetry {

namespace {

/// JSON string escaping for metric names and event labels.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON has no inf/nan literals; render those as null.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Registry::Registry(std::size_t tracer_capacity) : tracer_(tracer_capacity) {}

Counter& Registry::counter(const std::string& name) {
  require(!name.empty(), "metric name must not be empty");
  const std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  require(!name.empty(), "metric name must not be empty");
  const std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::span<const double> upper_bounds) {
  require(!name.empty(), "metric name must not be empty");
  const std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    std::vector<double> edges(upper_bounds.begin(), upper_bounds.end());
    if (edges.empty()) edges = default_latency_buckets_us();
    slot = std::make_unique<Histogram>(std::move(edges));
  }
  return *slot;
}

void Registry::reset_values() {
  const std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
  tracer_.clear();
}

std::vector<std::string> Registry::counter_names() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) names.push_back(name);
  return names;
}

std::vector<std::string> Registry::gauge_names() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) names.push_back(name);
  return names;
}

std::vector<std::string> Registry::histogram_names() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) names.push_back(name);
  return names;
}

std::string Registry::render_text() const {
  std::ostringstream out;
  out << "== telemetry registry (" << (enabled() ? "enabled" : "disabled")
      << ") ==\n";
  {
    const std::lock_guard lock(mutex_);
    out << "counters:\n";
    for (const auto& [name, counter] : counters_) {
      out << "  " << name << " = " << counter->value() << "\n";
    }
    out << "gauges:\n";
    for (const auto& [name, gauge] : gauges_) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", gauge->value());
      out << "  " << name << " = " << buf << "\n";
    }
    out << "histograms:\n";
    for (const auto& [name, histogram] : histograms_) {
      const Histogram::Snapshot snap = histogram->snapshot();
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "count=%lld sum=%.6g p50=%.6g p95=%.6g p99=%.6g",
                    static_cast<long long>(snap.total), snap.sum,
                    snap.quantile(0.50), snap.quantile(0.95),
                    snap.quantile(0.99));
      out << "  " << name << ": " << buf << "\n";
    }
  }
  const std::vector<SlotTraceEvent> events = tracer_.snapshot();
  constexpr std::size_t kMaxShown = 20;
  const std::size_t shown = std::min(events.size(), kMaxShown);
  out << "slot trace: " << tracer_.total_recorded() << " events recorded, "
      << events.size() << " retained";
  if (shown > 0) out << ", last " << shown << ":";
  out << "\n";
  for (std::size_t i = events.size() - shown; i < events.size(); ++i) {
    const SlotTraceEvent& event = events[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "  [slot %lld] user %d %s %.6g\n",
                  static_cast<long long>(event.slot), event.user,
                  to_string(event.kind), event.value);
    out << buf;
  }
  return out.str();
}

std::string Registry::render_json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  {
    const std::lock_guard lock(mutex_);
    bool first = true;
    for (const auto& [name, counter] : counters_) {
      out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
          << "\": " << counter->value();
      first = false;
    }
    out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
    first = true;
    for (const auto& [name, gauge] : gauges_) {
      out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
          << "\": " << json_number(gauge->value());
      first = false;
    }
    out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] : histograms_) {
      const Histogram::Snapshot snap = histogram->snapshot();
      out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {"
          << "\"count\": " << snap.total << ", \"sum\": " << json_number(snap.sum)
          << ", \"p50\": " << json_number(snap.quantile(0.50))
          << ", \"p95\": " << json_number(snap.quantile(0.95))
          << ", \"p99\": " << json_number(snap.quantile(0.99))
          << ", \"buckets\": [";
      for (std::size_t i = 0; i < snap.counts.size(); ++i) {
        if (i != 0) out << ", ";
        out << "{\"le\": "
            << (i < snap.upper_bounds.size() ? json_number(snap.upper_bounds[i])
                                             : std::string("null"))
            << ", \"count\": " << snap.counts[i] << "}";
      }
      out << "]}";
      first = false;
    }
    out << (first ? "}" : "\n  }");
  }
  const std::vector<SlotTraceEvent> events = tracer_.snapshot();
  out << ",\n  \"trace\": {\"capacity\": " << tracer_.capacity()
      << ", \"total_recorded\": " << tracer_.total_recorded()
      << ", \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out << ", ";
    out << "{\"slot\": " << events[i].slot << ", \"user\": " << events[i].user
        << ", \"kind\": \"" << to_string(events[i].kind)
        << "\", \"value\": " << json_number(events[i].value) << "}";
  }
  out << "]}\n}\n";
  return out.str();
}

void Registry::write_json(const std::string& path) const {
  std::ofstream out(path);
  require(out.good(), "cannot open telemetry JSON file for writing: " + path);
  out << render_json();
  require(out.good(), "telemetry JSON write failed: " + path);
}

Registry& global_registry() {
  static Registry registry;
  return registry;
}

}  // namespace jstream::telemetry
