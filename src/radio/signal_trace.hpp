// Batched signal-trace substrate for the campaign engine.
//
// A SignalTraceSet holds the complete channel trajectory of a scenario —
// sig_i(n) for every user i and slot n — plus the derived Definition 3/4
// link quantities v(sig) and P(sig), as three contiguous slot-major
// structure-of-arrays matrices (index = slot * users + user). Every figure
// bench compares several schedulers over the *same* scenario and seeds, so
// the trajectory is generated once, shared immutably
// (std::shared_ptr<const SignalTraceSet>) across all schedulers and
// replications, and read back as plain array loads on the per-slot hot path
// instead of per-slot virtual SignalModel calls and repeated link-fit
// evaluations. Generation walks the same SignalModel objects slot-by-slot in
// order, so batched values are bit-identical to the incremental path (the
// RNG stream order is preserved exactly).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "radio/link_model.hpp"
#include "radio/signal_model.hpp"
#include "common/units.hpp"

namespace jstream {

class ThreadPool;

/// Immutable-after-build SoA matrix set: users x slots RSSI plus derived
/// throughput/power rows. Memory footprint: 8 * users * slots bytes per
/// matrix, three matrices per set (see total_bytes / docs/PERFORMANCE.md).
///
/// Two storage modes share one read interface:
///  - owning (the constructor, or generate): the three matrices live in
///    arrays the set owns, filled by fill_user / derive_link — the
///    generation path;
///  - mapped (adopt_mapping): the matrices alias an external read-only block,
///    typically a memory-mapped trace file from the persistent tier
///    (signal_trace_io). A mapped set is born fully derived and immutable;
///    the keepalive shared_ptr pins the mapping for the set's lifetime, and
///    the hot collect path reads the same signal_data()/throughput_data()/
///    energy_data() pointers either way — promotion from disk is zero-copy.
class SignalTraceSet {
 public:
  /// Allocates zero-filled storage for `users` rows over `slots` slots (both
  /// > 0), for the caller to fill with fill_user and derive_link.
  SignalTraceSet(std::size_t users, std::int64_t slots);

  /// Builds a complete, link-derived set on `pool`: row `user` walks
  /// `*models[user]` as fill_user does, users in parallel, then the fits run
  /// per slot row as derive_link(link, pool) does. Each model walks its own
  /// RNG stream and writes only its own user's cells, and each derived cell
  /// is a pure function of one signal value, so the result is bit-identical
  /// to the constructor, fill_user in user order and derive_link. The
  /// matrices are allocated without initialisation and first touched by
  /// those parallel fills, which write every cell before the set is
  /// returned: no serial zero-fill on the calling thread, and no cell that
  /// nobody wrote.
  [[nodiscard]] static std::shared_ptr<const SignalTraceSet> generate(
      std::span<SignalModel* const> models, std::int64_t slots, const LinkModel& link,
      ThreadPool& pool);

  /// Wraps three externally-stored slot-major matrices (each users * slots
  /// doubles, 8-byte aligned) without copying. `keepalive` owns the backing
  /// memory (e.g. an mmap region) and is held until the set is destroyed.
  /// The result reports link_derived() — mapped payloads store the derived
  /// matrices, not just the RSSI — and rejects fill_user/derive_link.
  [[nodiscard]] static std::shared_ptr<const SignalTraceSet> adopt_mapping(
      std::size_t users, std::int64_t slots, std::shared_ptr<const void> keepalive,
      const double* signal, const double* throughput, const double* energy);

  /// Fills user `user`'s row by querying `model` for slots 0..slots-1 in
  /// order — the exact call sequence the incremental per-slot path performs,
  /// so the stored values are bit-identical to slot-by-slot signal_dbm calls
  /// on an identically-seeded model.
  void fill_user(std::size_t user, SignalModel& model);

  /// Evaluates the Definition 3/4 fits over the whole signal matrix into the
  /// derived throughput (KB/s) and energy (mJ/KB) matrices. Must run after
  /// every row is filled; required before the set can back a simulation.
  void derive_link(const LinkModel& link);

  /// derive_link with the slots split over `pool` by parallel_for. Every
  /// cell is the same pure function of the same signal value, so the result
  /// is bit-identical to the serial form.
  void derive_link(const LinkModel& link, ThreadPool& pool);

  [[nodiscard]] std::size_t users() const noexcept { return users_; }
  [[nodiscard]] std::int64_t slots() const noexcept { return slots_; }
  [[nodiscard]] bool link_derived() const noexcept { return link_derived_; }
  /// True when the matrices alias an external mapping (adopt_mapping).
  [[nodiscard]] bool mapped() const noexcept { return keepalive_ != nullptr; }

  /// Flat slot-major index of (user, slot); valid for slot in [0, slots).
  [[nodiscard]] std::size_t index(std::size_t user, std::int64_t slot) const noexcept {
    return checked_size(slot) * users_ + user;
  }

  /// Bounds-checked element accessors (tests, diagnostics).
  [[nodiscard]] double signal_dbm(std::size_t user, std::int64_t slot) const;
  [[nodiscard]] double throughput_kbps(std::size_t user, std::int64_t slot) const;
  [[nodiscard]] double energy_per_kb(std::size_t user, std::int64_t slot) const;

  /// Raw SoA pointers for the hot path (InfoCollector); index with index().
  /// Point into the owning vectors or the adopted mapping — callers cannot
  /// tell (and must not care) which.
  [[nodiscard]] const double* signal_data() const noexcept { return signal_view_; }
  [[nodiscard]] const double* throughput_data() const noexcept {
    return throughput_view_;
  }
  [[nodiscard]] const double* energy_data() const noexcept { return energy_view_; }

  /// Resident bytes of the three matrices (3 * 8 * users * slots). A mapped
  /// set reports the same figure: its pages are file-backed and reclaimable,
  /// but budget accounting treats both modes alike so eviction order does not
  /// depend on where an entry came from.
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

  /// Fills the derived cells of slot `slot`'s row.
  void derive_slot(const LinkModel& link, std::size_t slot);

  std::size_t users_ = 0;
  std::int64_t slots_ = 0;
  std::unique_ptr<double[]> signal_;      ///< sig_i(n), dBm (owning mode)
  std::unique_ptr<double[]> throughput_;  ///< v(sig_i(n)), KB/s (owning mode)
  std::unique_ptr<double[]> energy_;      ///< P(sig_i(n)), mJ/KB (owning mode)
  const double* signal_view_ = nullptr;
  const double* throughput_view_ = nullptr;
  const double* energy_view_ = nullptr;
  std::shared_ptr<const void> keepalive_;  ///< mapping pin (mapped mode only)
  bool link_derived_ = false;
};

}  // namespace jstream
