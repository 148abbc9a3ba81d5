// Batched signal-trace substrate for the campaign engine.
//
// A SignalTraceSet holds the complete channel trajectory of a scenario —
// sig_i(n) for every user i and slot n — as one contiguous slot-major matrix
// (index = slot * users + user), 8 * users * slots bytes. Every figure bench
// compares several schedulers over the *same* scenario and seeds, so the
// trajectory is generated once, shared immutably
// (std::shared_ptr<const SignalTraceSet>) across all schedulers and
// replications, and read back as plain array loads on the per-slot hot path
// instead of per-slot virtual SignalModel calls. Generation walks the same
// SignalModel objects slot-by-slot in order, so batched values are
// bit-identical to the incremental path (the RNG stream order is preserved
// exactly).
//
// The Definition 3/4 fits v(sig) and P(sig) are not stored: Eq. 24 makes
// them closed-form functions of the signal, so the InfoCollector evaluates
// them once per slot over the slot's signal lane, for trace-backed and live
// endpoints alike. A trace therefore does not depend on the link model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "radio/signal_model.hpp"
#include "common/units.hpp"

namespace jstream {

class ThreadPool;

/// Immutable-after-build slot-major users x slots RSSI matrix (dBm).
///
/// Two storage modes share one read interface:
///  - owning (the constructor, or generate): the matrix lives in an array the
///    set owns, filled by fill_user — the generation path;
///  - mapped (adopt_mapping): the matrix aliases an external read-only block,
///    typically a memory-mapped trace file from the persistent tier
///    (signal_trace_io). A mapped set is immutable; the keepalive shared_ptr
///    pins the mapping for the set's lifetime, and the hot collect path reads
///    the same signal_data() pointer either way — promotion from disk is
///    zero-copy.
class SignalTraceSet {
 public:
  /// Allocates zero-filled storage for `users` rows over `slots` slots (both
  /// > 0), for the caller to fill with fill_user.
  SignalTraceSet(std::size_t users, std::int64_t slots);

  /// Builds a complete set on `pool`: row `user` walks `*models[user]` as
  /// fill_user does, users in parallel. Each model walks its own RNG stream
  /// and writes only its own user's cells, so the result is bit-identical to
  /// the constructor plus fill_user in user order. The matrix is allocated
  /// without initialisation and first touched by that parallel fill, which
  /// writes every cell before the set is returned: no serial zero-fill on
  /// the calling thread, and no cell that nobody wrote.
  [[nodiscard]] static std::shared_ptr<const SignalTraceSet> generate(
      std::span<SignalModel* const> models, std::int64_t slots, ThreadPool& pool);

  /// Wraps an externally-stored slot-major matrix (users * slots doubles,
  /// 8-byte aligned) without copying. `keepalive` owns the backing memory
  /// (e.g. an mmap region) and is held until the set is destroyed. The
  /// result rejects fill_user.
  [[nodiscard]] static std::shared_ptr<const SignalTraceSet> adopt_mapping(
      std::size_t users, std::int64_t slots, std::shared_ptr<const void> keepalive,
      const double* signal);

  /// Fills user `user`'s row by querying `model` for slots 0..slots-1 in
  /// order — the exact call sequence the incremental per-slot path performs,
  /// so the stored values are bit-identical to slot-by-slot signal_dbm calls
  /// on an identically-seeded model.
  void fill_user(std::size_t user, SignalModel& model);

  [[nodiscard]] std::size_t users() const noexcept { return users_; }
  [[nodiscard]] std::int64_t slots() const noexcept { return slots_; }
  /// True when the matrix aliases an external mapping (adopt_mapping).
  [[nodiscard]] bool mapped() const noexcept { return keepalive_ != nullptr; }

  /// Flat slot-major index of (user, slot); valid for slot in [0, slots).
  [[nodiscard]] std::size_t index(std::size_t user, std::int64_t slot) const noexcept {
    return checked_size(slot) * users_ + user;
  }

  /// Bounds-checked element accessor (tests, diagnostics).
  [[nodiscard]] double signal_dbm(std::size_t user, std::int64_t slot) const;

  /// Raw matrix pointer for the hot path (InfoCollector); index with
  /// index(). Points into the owning array or the adopted mapping — callers
  /// cannot tell (and must not care) which.
  [[nodiscard]] const double* signal_data() const noexcept { return signal_view_; }

  /// Resident bytes of the matrix (8 * users * slots). A mapped set reports
  /// the same figure: its pages are file-backed and reclaimable, but budget
  /// accounting treats both modes alike so eviction order does not depend on
  /// where an entry came from.
  [[nodiscard]] std::size_t total_bytes() const noexcept;

  /// Estimate of total_bytes for a set of the given dimensions, usable
  /// before construction (cache budget accounting).
  [[nodiscard]] static std::size_t estimate_bytes(std::size_t users,
                                                  std::int64_t slots) noexcept;

 private:
  SignalTraceSet() = default;  // adopt_mapping's blank slate

  /// Owning storage left uninitialised; only generate, which writes every
  /// cell before anyone can read one, and the public constructor use it.
  struct Uninitialized {};
  SignalTraceSet(std::size_t users, std::int64_t slots, Uninitialized);

  std::size_t users_ = 0;
  std::int64_t slots_ = 0;
  std::unique_ptr<double[]> signal_;  ///< sig_i(n), dBm (owning mode)
  const double* signal_view_ = nullptr;
  std::shared_ptr<const void> keepalive_;  ///< mapping pin (mapped mode only)
};

}  // namespace jstream
