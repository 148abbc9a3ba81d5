// Loading, saving, and recording text RSSI traces.
//
// Field measurements (e.g. Bartendr-style drive logs) arrive as one dBm
// sample per slot; load/save/record move them between files, vectors, and
// signal models so trace-driven scenarios (SignalKind::kTrace) can replay
// them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "radio/signal_model.hpp"

namespace jstream {

/// Reads a trace file: one dBm value per line; blank lines and lines starting
/// with '#' are skipped. Throws jstream::Error on I/O or parse failure, on a
/// non-finite sample (nan, inf, -inf), or if the file holds no samples.
[[nodiscard]] std::vector<double> load_signal_trace(const std::string& path);

/// Writes one dBm value per line (full round-trip precision).
void save_signal_trace(const std::string& path, const std::vector<double>& trace_dbm);

/// Samples `slots` values from a signal model (e.g. to turn a synthetic
/// process into a replayable trace).
[[nodiscard]] std::vector<double> record_signal_trace(SignalModel& model,
                                                      std::int64_t slots);

}  // namespace jstream
