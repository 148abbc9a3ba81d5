#include "sim/trace_store.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "radio/signal_trace_io.hpp"
#include "telemetry/registry.hpp"

namespace jstream {

namespace {

struct TraceStoreTelemetry {
  telemetry::Counter& spills;
  telemetry::Counter& promotions;
  telemetry::Counter& rejections;

  static TraceStoreTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static TraceStoreTelemetry probes{registry.counter("trace_store.spills"),
                                      registry.counter("trace_store.promotions"),
                                      registry.counter("trace_store.rejections")};
    return probes;
  }
};

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buffer);
}

}  // namespace

TraceStore::TraceStore(std::string directory) : directory_(std::move(directory)) {
  require(!directory_.empty(), "trace store needs a directory");
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  require(!ec && std::filesystem::is_directory(directory_),
          "trace store directory is not usable: " + directory_);
}

std::string TraceStore::path_for(std::uint64_t fingerprint) const {
  return directory_ + "/trace_" + hex16(fingerprint) + ".jst";
}

bool TraceStore::contains(std::uint64_t fingerprint) const {
  std::error_code ec;
  return std::filesystem::exists(path_for(fingerprint), ec) && !ec;
}

bool TraceStore::put(std::uint64_t fingerprint, const SignalTraceSet& set) {
  // Idempotent: equal fingerprints imply bit-identical payloads, so the first
  // complete file wins and later writers skip the (16 MB per N = 200 entry) I/O.
  // Racing writers that both miss this check still converge — save_trace_set
  // renames a complete temp file into place atomically.
  if (contains(fingerprint)) return false;
  save_trace_set(path_for(fingerprint), set, fingerprint);
  {
    const std::lock_guard lock(mutex_);
    ++spills_;
  }
  if (telemetry::enabled()) TraceStoreTelemetry::instance().spills.add();
  return true;
}

std::shared_ptr<const SignalTraceSet> TraceStore::try_load(
    std::uint64_t fingerprint, std::size_t users, std::int64_t slots) {
  const std::string path = path_for(fingerprint);
  {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) return nullptr;
  }
  try {
    std::shared_ptr<const SignalTraceSet> set = load_trace_set(path, fingerprint);
    if (set->users() != users || set->slots() != slots) {
      throw TraceFileError("trace set dimensions disagree with the key: " + path);
    }
    {
      const std::lock_guard lock(mutex_);
      ++promotions_;
    }
    if (telemetry::enabled()) TraceStoreTelemetry::instance().promotions.add();
    return set;
  } catch (const TraceFileError&) {
    // Foreign schema, truncation, bit rot, or a filename collision: drop the
    // file so the regenerated set can land cleanly, and report a miss.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    {
      const std::lock_guard lock(mutex_);
      ++rejections_;
    }
    if (telemetry::enabled()) TraceStoreTelemetry::instance().rejections.add();
    return nullptr;
  }
}

std::uint64_t TraceStore::spills() const {
  const std::lock_guard lock(mutex_);
  return spills_;
}

std::uint64_t TraceStore::promotions() const {
  const std::lock_guard lock(mutex_);
  return promotions_;
}

std::uint64_t TraceStore::rejections() const {
  const std::lock_guard lock(mutex_);
  return rejections_;
}

}  // namespace jstream
