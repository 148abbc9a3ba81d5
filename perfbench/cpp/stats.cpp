#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

namespace {

std::size_t nearest_rank(std::size_t count, double q) {
  if (count == 0) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("percentile outside (0, 1]");
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(count)));
  return std::clamp<std::size_t>(rank, 1, count);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  const std::size_t index = nearest_rank(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

std::size_t samples_beyond(std::size_t count, double q) {
  return count - nearest_rank(count, q);
}

void Digest::add_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

namespace {

void add_series(Digest& d, const std::vector<double>& series) {
  d.add(static_cast<std::uint64_t>(series.size()));
  for (const double v : series) d.add(v);
}

void add_run(Digest& d, const jstream::RunMetrics& run) {
  d.add(run.slots_run);
  d.add(static_cast<std::uint64_t>(run.per_user.size()));
  for (const jstream::UserTotals& u : run.per_user) {
    d.add(u.trans_mj);
    d.add(u.tail_mj);
    d.add(u.rebuffer_s);
    d.add(u.delivered_kb);
    d.add(u.session_slots);
    d.add(u.tx_slots);
    d.add(u.playback_finished);
  }
  add_series(d, run.slot_fairness);
  add_series(d, run.slot_energy_mj);
  add_series(d, run.rebuffer_samples_s);
}

}  // namespace

std::uint64_t digest(const jstream::RunMetrics& run) {
  Digest d;
  add_run(d, run);
  return d.value();
}

std::uint64_t digest(const jstream::RunMetrics& run,
                     const jstream::ServiceMetrics& s) {
  Digest d;
  add_run(d, run);
  for (const std::int64_t v :
       {s.slots_run, s.warmup_slots, s.offered, s.admitted, s.rejected, s.blocked,
        s.completed, s.aborted, s.in_flight_at_end, s.measured_slots,
        s.active_user_slots, s.sessions_measured, s.session_length_slots_sum}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(s.capacity_slots));
  d.add(static_cast<std::uint64_t>(s.peak_concurrency));
  for (const double v : {s.concurrency_sum, s.rebuffer_sum_s, s.energy_sum_mj,
                         s.session_rebuffer_sum_s, s.session_energy_sum_mj,
                         s.session_delivered_sum_kb}) {
    d.add(v);
  }
  return d.value();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Result::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

void print_result(const Result& result, const std::string& workload, std::uint64_t seed,
                  const std::string& telemetry) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out += first ? "" : ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  out += "}, \"environment\": {";
  out += "\"workload\": " + json_string(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  out += ", \"flags\": " + json_string(PERFBENCH_FLAGS);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"telemetry\": " + json_string(telemetry);
  out += "}, \"details\": {";
  first = true;
  for (const auto& [key, value] : result.details) {
    out += first ? "" : ", ";
    first = false;
    out += json_string(key) + ": " + json_string(value);
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(result.errors[i]);
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
