#include "radio/signal_trace_io.hpp"

#include <cmath>
#include <fstream>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

std::vector<double> load_signal_trace(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open signal trace: " + path);
  std::vector<double> trace;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Trim whitespace; skip blanks and comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(line.substr(first), &consumed);
    } catch (const std::exception&) {
      throw Error(path + ":" + std::to_string(line_number) + ": not a number: " + line);
    }
    const auto rest = line.find_first_not_of(" \t\r", first + consumed);
    require(rest == std::string::npos,
            path + ":" + std::to_string(line_number) + ": trailing garbage: " + line);
    require(std::isfinite(value),
            path + ":" + std::to_string(line_number) + ": sample is not finite: " + line);
    trace.push_back(value);
  }
  require(!trace.empty(), "signal trace is empty: " + path);
  return trace;
}

void save_signal_trace(const std::string& path, const std::vector<double>& trace_dbm) {
  require(!trace_dbm.empty(), "refusing to write an empty trace");
  std::ofstream out(path);
  require(out.good(), "cannot open signal trace for writing: " + path);
  out << "# jstream RSSI trace, one dBm sample per slot\n";
  out.precision(17);
  for (double value : trace_dbm) out << value << '\n';
  require(out.good(), "trace write failed: " + path);
}

std::vector<double> record_signal_trace(SignalModel& model, std::int64_t slots) {
  require(slots > 0, "need at least one slot to record");
  std::vector<double> trace;
  trace.reserve(checked_size(slots));
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    trace.push_back(model.signal_dbm(slot));
  }
  return trace;
}

}  // namespace jstream
