// Loading, saving, and recording RSSI traces — and the binary trace-set
// format behind the persistent trace tier.
//
// Two unrelated-looking jobs share this TU because both are "signal data on
// disk":
//
//  1. Text RSSI traces. Field measurements (e.g. Bartendr-style drive logs)
//     arrive as one dBm sample per slot; load/save/record move them between
//     files, vectors, and signal models so trace-driven scenarios
//     (SignalKind::kTrace) can replay them.
//
//  2. Binary SignalTraceSet files (`.jst`). The campaign engine's persistent
//     tier (src/sim/trace_store) spills evicted channel matrices here and
//     promotes them back by memory-mapping the file — the payload is the
//     exact slot-major signal matrix SignalTraceSet serves to the hot collect
//     path, so a promoted set reads zero-copy straight out of the page
//     cache. The format is versioned and checksummed: a 64-byte header pins
//     magic, schema version, an endianness tag, the trace-key fingerprint,
//     the matrix dimensions, and XXH64 checksums of header and payload.
//     Loaders verify all of it and throw TraceFileError on any mismatch or
//     truncation; the store turns that into "regenerate", never a crash.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "radio/signal_model.hpp"
#include "radio/signal_trace.hpp"

namespace jstream {

/// Reads a trace file: one dBm value per line; blank lines and lines starting
/// with '#' are skipped. Throws jstream::Error on I/O or parse failure, or if
/// the file holds no samples.
[[nodiscard]] std::vector<double> load_signal_trace(const std::string& path);

/// Writes one dBm value per line (full round-trip precision).
void save_signal_trace(const std::string& path, const std::vector<double>& trace_dbm);

/// Samples `slots` values from a signal model (e.g. to turn a synthetic
/// process into a replayable trace).
[[nodiscard]] std::vector<double> record_signal_trace(SignalModel& model,
                                                      std::int64_t slots);

// ---------------------------------------------------------------------------
// Binary trace-set files (persistent trace tier).
// ---------------------------------------------------------------------------

/// Raised when a trace-set file fails validation (bad magic, foreign schema
/// version or endianness, fingerprint mismatch, truncation, checksum
/// failure). Distinct from Error so the store can catch exactly "this file is
/// unusable" and fall back to regeneration while real I/O misconfiguration
/// (e.g. an unwritable directory) still surfaces.
class TraceFileError : public Error {
 public:
  explicit TraceFileError(const std::string& what) : Error(what) {}
};

/// Schema version this build writes and accepts. Version 2 stores the signal
/// matrix alone; version 1 files, which also carried the derived throughput
/// and energy matrices, are rejected as an unsupported schema version.
inline constexpr std::uint32_t kTraceSetFileVersion = 2;

/// Header fields of a validated trace-set file (probe_trace_set).
struct TraceSetFileInfo {
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;  ///< trace-key fingerprint the payload answers to
  std::size_t users = 0;
  std::int64_t slots = 0;
  std::size_t payload_bytes = 0;  ///< 8 * users * slots
};

/// Writes `set` as a binary trace-set file stamped with `fingerprint`. The write is atomic-by-rename: the payload lands in a
/// process-unique temp file first, so concurrent writers of the same key and
/// readers racing a writer only ever observe complete files. Throws Error on
/// I/O failure.
void save_trace_set(const std::string& path, const SignalTraceSet& set,
                    std::uint64_t fingerprint);

/// Validates the header of a trace-set file without touching the payload.
/// Throws TraceFileError on any mismatch (see class comment), Error when the
/// file cannot be opened.
[[nodiscard]] TraceSetFileInfo probe_trace_set(const std::string& path);

/// Memory-maps a trace-set file and wraps it as a zero-copy SignalTraceSet
/// (SignalTraceSet::adopt_mapping; the mapping lives as long as the set).
/// Verifies header + payload checksum before handing the data out, and
/// requires the stored fingerprint to equal `expected_fingerprint` — a store
/// directory shared by many campaigns must never serve the wrong key's
/// matrices because of a filename collision. Throws TraceFileError on any
/// validation failure.
[[nodiscard]] std::shared_ptr<const SignalTraceSet> load_trace_set(
    const std::string& path, std::uint64_t expected_fingerprint);

}  // namespace jstream
