// Batched signal-trace substrate for the campaign engine.
//
// A SignalTraceSet holds the channel trajectory of a scenario — sig_i(n) for
// every user i and slot n — as one contiguous slot-major matrix (index =
// slot * users + user), 8 * users * slots bytes. Every figure bench compares
// several schedulers over the *same* scenario and seeds, so the trajectory is
// built once, shared immutably (std::shared_ptr<const SignalTraceSet>) across
// all schedulers and replications, and read back as plain array loads on the
// per-slot hot path instead of per-slot virtual SignalModel calls.
//
// A set is complete from the start (generate, the constructor) or fills on
// read (fill_on_read): it then owns the users' SignalModels, and the first
// read of a row past the filled ones fills whole blocks of kFillBlockSlots
// rows up to it. Campaign cells stop as soon as their sessions finish,
// usually long before the horizon, so most rows of a fill-on-read set are
// never written and their pages never touched. Every
// fill walks the same SignalModel objects slot by slot in order, so the
// values are bit-identical to the incremental path whichever form wrote them
// (the RNG stream order is preserved exactly).
//
// The Definition 3/4 fits v(sig) and P(sig) are not stored: Eq. 24 makes
// them closed-form functions of the signal, so the InfoCollector evaluates
// them once per slot over the slot's signal lane, for trace-backed and live
// endpoints alike. A trace therefore does not depend on the link model.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "radio/signal_model.hpp"
#include "common/units.hpp"

namespace jstream {

class ThreadPool;

/// Immutable-after-fill slot-major users x slots RSSI matrix (dBm), in an
/// array the set owns. Two modes share one read interface:
///  - complete (the constructor, or generate): filled by fill_user before
///    anyone reads it — the generation path;
///  - fill-on-read (fill_on_read): the set also owns the users' models and
///    writes each row on its first read (row, signal_data).
class SignalTraceSet {
 public:
  /// Rows a fill-on-read set fills at a time: a read past the filled rows
  /// fills whole blocks through the block holding its row. At N = 40 one
  /// block is 80 KB of matrix and ~10k model steps.
  static constexpr std::int64_t kFillBlockSlots = 256;

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

  /// Builds a fill-on-read set over `models` (one per user, none null, now
  /// owned by the set) for `slots` slots. The matrix is allocated without
  /// initialisation and no row is filled: row() and signal_data() fill on
  /// demand, through the same per-user walk as generate, so every row they
  /// return equals generate's byte for byte. The models are released once
  /// the last row is filled.
  [[nodiscard]] static std::shared_ptr<const SignalTraceSet> fill_on_read(
      std::vector<std::unique_ptr<SignalModel>> models, std::int64_t slots);

  /// Fills user `user`'s row by querying `model` for slots 0..slots-1 in
  /// order — the exact call sequence the incremental per-slot path performs,
  /// so the stored values are bit-identical to slot-by-slot signal_dbm calls
  /// on an identically-seeded model.
  void fill_user(std::size_t user, SignalModel& model);

  [[nodiscard]] std::size_t users() const noexcept { return users_; }
  [[nodiscard]] std::int64_t slots() const noexcept { return slots_; }

  /// Rows [0, filled_slots()) hold their values: slots() for a complete set;
  /// for a fill-on-read set, its fill frontier — a multiple of
  /// kFillBlockSlots until it reaches slots(), and never past the block
  /// holding the furthest row read.
  [[nodiscard]] std::int64_t filled_slots() const noexcept {
    return fill_ != nullptr ? fill_->frontier.load(std::memory_order_acquire) : slots_;
  }

  /// Flat slot-major index of (user, slot); valid for slot in [0, slots).
  [[nodiscard]] std::size_t index(std::size_t user, std::int64_t slot) const noexcept {
    return checked_size(slot) * users_ + user;
  }

  /// Slot `slot`'s row for the hot path (InfoCollector): sig_i(slot) of every
  /// user i, users() contiguous doubles; valid for slot in [0, slots). A
  /// complete set pays one null check. A fill-on-read set adds one acquire
  /// load of its frontier, and when the row lies past it, fills through the
  /// row's block under the set's mutex first. Filled rows are never written
  /// again, so they are read without a lock.
  [[nodiscard]] const double* row(std::int64_t slot) const {
    if (fill_ != nullptr && slot >= fill_->frontier.load(std::memory_order_acquire))
        [[unlikely]] {
      fill_through(slot);
    }
    return signal_.get() + checked_size(slot) * users_;
  }

  /// Bounds-checked element accessor (tests, diagnostics); reads through row.
  [[nodiscard]] double signal_dbm(std::size_t user, std::int64_t slot) const;

  /// The whole matrix for whole-matrix readers (byte comparisons, warm-ups
  /// outside a timed loop); index with index(). A fill-on-read set first
  /// fills every remaining row on the calling thread, as row() does, so the
  /// bytes are the complete set's.
  [[nodiscard]] const double* signal_data() const;

  /// Resident bytes of the matrix (8 * users * slots). A fill-on-read set
  /// reports the same figure: the cache budgets it at its full horizon.
  [[nodiscard]] std::size_t total_bytes() const noexcept;

  /// Estimate of total_bytes for a set of the given dimensions, usable
  /// before construction (cache budget accounting).
  [[nodiscard]] static std::size_t estimate_bytes(std::size_t users,
                                                  std::int64_t slots) noexcept;

 private:
  /// A fill-on-read set's walk state, kept behind one pointer so the set
  /// stays movable. Rows [0, frontier) are written and never written again.
  /// A fill holds `mutex`, walks `models` on from the frontier and publishes
  /// the new frontier with a release store, so a reader whose acquire load
  /// sees its row below the frontier reads the row with no lock.
  struct FillState {
    std::vector<std::unique_ptr<SignalModel>> models;
    std::atomic<std::int64_t> frontier{0};
    std::mutex mutex;
  };

  /// Owning storage left uninitialised; generate and fill_on_read, which
  /// write every cell before anyone can read it, and the public constructor
  /// use it.
  struct Uninitialized {};
  SignalTraceSet(std::size_t users, std::int64_t slots, Uninitialized);

  /// Fills whole blocks from the frontier through the block holding `slot`,
  /// on the calling thread, allocating nothing.
  void fill_through(std::int64_t slot) const;

  /// The one fill routine: writes user `user`'s cells of rows [begin, end)
  /// by walking `model` over those slots in order. Const because a
  /// fill-on-read set fills from its const readers; only rows no reader can
  /// have read yet are written.
  void walk_rows(std::size_t user, SignalModel& model, std::int64_t begin,
                 std::int64_t end) const;

  std::size_t users_ = 0;
  std::int64_t slots_ = 0;
  std::unique_ptr<double[]> signal_;  ///< sig_i(n), dBm
  std::unique_ptr<FillState> fill_;   ///< fill-on-read mode only
};

}  // namespace jstream
