// Persistent trace tier: a directory of checksummed, memory-mappable
// trace-set files keyed by trace-key fingerprint.
//
// The in-process TraceCache is byte-budgeted; campaign grids bigger than the
// budget used to regenerate every evicted channel matrix on the next touch,
// and nothing survived the process. The store is the tier below the LRU:
//
//   - spill: an evicted (or explicitly flushed) SignalTraceSet is written as
//     a binary trace-set file (signal_trace_io) named by its 64-bit trace-key
//     fingerprint. Writes are atomic-by-rename and idempotent — a key already
//     on disk is never rewritten, because equal fingerprints imply
//     bit-identical payloads (the whole generation pipeline is a pure
//     function of the key).
//   - promote: a cache miss asks the store first. A hit memory-maps the file
//     and serves the matrices zero-copy (SignalTraceSet::adopt_mapping); only
//     a validated file — magic, schema version, endianness, fingerprint, and
//     XXH64 payload checksum all good — is ever served. Anything else
//     (foreign schema, truncation, bit rot) is counted, unlinked, and
//     reported as a miss so the caller regenerates instead of crashing.
//
// The store is safe to share across threads and across processes: per-file
// atomic renames make racing writers of one key converge on one complete
// file, so concurrent campaigns — in one process or several — can share one
// warm directory.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "radio/signal_trace.hpp"

namespace jstream {

class TraceStore {
 public:
  /// Opens (and creates, including parents) the store directory.
  explicit TraceStore(std::string directory);

  [[nodiscard]] const std::string& directory() const noexcept { return directory_; }

  /// File that would hold `fingerprint` ("trace_<16-hex>.jst" under the
  /// store directory).
  [[nodiscard]] std::string path_for(std::uint64_t fingerprint) const;

  /// True when a file for the key exists (no validation — loads validate).
  [[nodiscard]] bool contains(std::uint64_t fingerprint) const;

  /// Spills `set` under `fingerprint` unless already present. Returns true
  /// when a new file landed. Throws Error on real I/O failure (unwritable
  /// directory); never throws for "already there".
  bool put(std::uint64_t fingerprint, const SignalTraceSet& set);

  /// Promotes the key from disk: a validated file returns the mapped set and
  /// counts a promotion; a missing file returns nullptr; an invalid file
  /// (wrong magic/version/endianness/fingerprint, truncated, checksum
  /// mismatch) is unlinked, counts a rejection, and returns nullptr so the
  /// caller regenerates. `users`/`slots` are the dimensions the key demands;
  /// a file disagreeing with them is rejected too.
  [[nodiscard]] std::shared_ptr<const SignalTraceSet> try_load(
      std::uint64_t fingerprint, std::size_t users, std::int64_t slots);

  [[nodiscard]] std::uint64_t spills() const;      ///< files written by put()
  [[nodiscard]] std::uint64_t promotions() const;  ///< successful try_load()s
  [[nodiscard]] std::uint64_t rejections() const;  ///< invalid files dropped

 private:
  std::string directory_;
  mutable std::mutex mutex_;  ///< guards the counters only
  std::uint64_t spills_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t rejections_ = 0;
};

}  // namespace jstream
