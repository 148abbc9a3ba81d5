// Batched signal-trace substrate for the campaign engine and live runs.
//
// A SignalTraceSet holds the channel trajectory of a scenario — sig_i(n) for
// every user i and slot n — as slot-major rows (index = slot * users + user),
// read back as plain array loads on the per-slot hot path instead of per-slot
// virtual SignalModel calls. Every figure bench compares several schedulers
// over the *same* scenario and seeds, so a campaign builds the trajectory
// once and shares it immutably (std::shared_ptr<const SignalTraceSet>)
// across all schedulers and replications.
//
// A set takes one of three forms:
//  - complete (generate, the constructor): the whole 8 * users * slots byte
//    matrix, filled before anyone reads it;
//  - fill-on-read (fill_on_read, the trace cache's sets): the same matrix,
//    but the set owns the users' SignalModels and the first read of a row
//    past the filled ones fills whole blocks of kFillBlockSlots rows up to
//    it. Campaign cells stop as soon as their sessions finish, usually long
//    before the horizon, so most rows are never written and their pages
//    never touched;
//  - stream (stream, a live run's own channel): the set owns the models and
//    holds only a ring of two blocks of stream_block_slots(users) rows. When
//    its one reader first enters block k it posts the fill of block k + 1 to
//    caller_or_shared_pool(), so the slot thread finds its row filled and
//    only loads it. Nothing any run decides feeds back into sig_i(n), which
//    is what makes filling it ahead sound.
// Every fill walks the same SignalModel objects slot by slot in order, under
// the set's lock, so the values are bit-identical to the incremental path
// whichever form, thread or fill wrote them (the RNG stream order is
// preserved exactly).
//
// The Definition 3/4 fits v(sig) and P(sig) are not stored: Eq. 24 makes
// them closed-form functions of the signal, so the InfoCollector evaluates
// them once per slot over the slot's signal lane. A trace therefore does not
// depend on the link model.
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

/// Slot-major users x slots RSSI rows (dBm) in an array the set owns. Three
/// forms share one read interface (row); see the file comment:
///  - complete (the constructor, or generate): filled by fill_user before
///    anyone reads it — the generation path;
///  - fill-on-read (fill_on_read): the set also owns the users' models and
///    writes each row on its first read (row, signal_data);
///  - stream (stream): the set owns the models and a two-block ring that a
///    look-ahead on the shared pool keeps one block ahead of its one reader.
class SignalTraceSet {
 public:
  /// Rows a fill-on-read set fills at a time: a read past the filled rows
  /// fills whole blocks through the block holding its row. At N = 40 one
  /// block is 80 KB of matrix and ~10k model steps. Also the most rows one
  /// block of a stream holds.
  static constexpr std::int64_t kFillBlockSlots = 256;

  /// Bytes of rows one block of a stream holds at most (see
  /// stream_block_slots): two blocks bound a stream's memory to 512 KB
  /// whatever the horizon, unless one row alone is larger.
  static constexpr std::size_t kStreamBlockBytes = std::size_t{256} * 1024;

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

  /// Builds a stream over `models` (one per user, none null, now owned by
  /// the set) for `slots` slots: a ring of two blocks of
  /// stream_block_slots(users) rows, left uninitialised; nothing is filled
  /// and nothing is posted until the first read. A stream has one reader,
  /// which reads its rows in nondecreasing slot order:
  ///  - when the reader first enters block k it posts the fill of rows up to
  ///    the end of block k + 1 to caller_or_shared_pool(). That look-ahead
  ///    writes only rows past the published frontier, publishing each row as
  ///    it completes, so it never rewrites a row of the reader's block;
  ///  - a read of a row the look-ahead is walking toward waits for that row
  ///    alone. A read of an unfilled row whose look-ahead has not started
  ///    (queued behind busy workers, or never posted) fills rows up to and
  ///    including its own on the reader's thread, as the live per-slot path
  ///    would. Nothing waits for a queued task, so a pool worker may read a
  ///    stream;
  ///  - a read behind the reader's block throws: those rows are gone.
  /// Destroying the stream waits for a running look-ahead to stop at its
  /// next row; a look-ahead that starts afterwards does nothing. Steady-state
  /// reads, fills and posts allocate nothing. Rows equal generate's byte for
  /// byte.
  [[nodiscard]] static std::shared_ptr<const SignalTraceSet> stream(
      std::vector<std::unique_ptr<SignalModel>> models, std::int64_t slots);

  /// Rows per block of a stream over `users` users: as many as fit in
  /// kStreamBlockBytes, at least 1 and at most kFillBlockSlots. At N = 1000
  /// a block is 32 rows.
  [[nodiscard]] static std::int64_t stream_block_slots(std::size_t users) noexcept;

  /// Fills user `user`'s row by querying `model` for slots 0..slots-1 in
  /// order — the exact call sequence the incremental per-slot path performs,
  /// so the stored values are bit-identical to slot-by-slot signal_dbm calls
  /// on an identically-seeded model.
  void fill_user(std::size_t user, SignalModel& model);

  [[nodiscard]] std::size_t users() const noexcept { return users_; }
  [[nodiscard]] std::int64_t slots() const noexcept { return slots_; }

  /// Rows [0, filled_slots()) have been written: slots() for a complete set;
  /// for a fill-on-read set, its fill frontier — a multiple of
  /// kFillBlockSlots until it reaches slots(), and never past the block
  /// holding the furthest row read. A stream's frontier is any row count,
  /// never past the end of the block after its reader's, and the stream
  /// holds only the rows of those two blocks.
  [[nodiscard]] std::int64_t filled_slots() const noexcept {
    if (stream_ != nullptr) return stream_->frontier.load(std::memory_order_acquire);
    return fill_ != nullptr ? fill_->frontier.load(std::memory_order_acquire) : slots_;
  }

  /// Flat slot-major index of (user, slot) into signal_data(); valid for
  /// slot in [0, slots). Not for streams, which hold no whole matrix.
  [[nodiscard]] std::size_t index(std::size_t user, std::int64_t slot) const noexcept {
    return checked_size(slot) * users_ + user;
  }

  /// Slot `slot`'s row for the hot path (InfoCollector): sig_i(slot) of every
  /// user i, users() contiguous doubles; valid for slot in [0, slots). A
  /// complete set pays two null checks. A fill-on-read set adds one acquire
  /// load of its frontier, and when the row lies past it, fills through the
  /// row's block under the set's mutex first. Filled rows are never written
  /// again, so they are read without a lock. A stream's reader reads the
  /// filled rows of its block it has already seen with no atomic at all;
  /// any other row goes through stream_row (see stream).
  [[nodiscard]] const double* row(std::int64_t slot) const {
    if (stream_ != nullptr) {
      const StreamState& stream = *stream_;
      if (slot >= stream.window_first && slot < stream.window_end) {
        return stream.window_base + checked_size(slot - stream.window_first) * users_;
      }
      return stream_row(slot);
    }
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
  /// bytes are the complete set's. A stream holds no whole matrix and
  /// throws.
  [[nodiscard]] const double* signal_data() const;

  /// Bytes of rows the set holds: the matrix (8 * users * slots), which a
  /// fill-on-read set also reports (the cache budgets it at its full
  /// horizon), or a stream's two-block ring.
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

  /// A stream's walk state. Fills hold `mutex`, walk `models` on from the
  /// frontier into the ring and publish each row with a release store. The
  /// window and reader_block belong to the one reader. Every posted
  /// look-ahead holds a reference, so the state outlives its set until the
  /// last task has run; `attached` is cleared under `mutex` when the set
  /// goes, and a look-ahead that finds it cleared does nothing.
  struct StreamState : FillState {
    double* ring = nullptr;  ///< the set's two blocks of rows
    std::size_t users = 0;
    std::int64_t slots = 0;
    std::int64_t block_slots = 1;
    /// Reader-owned: rows [window_first, window_end) are filled rows of the
    /// reader's block, the first of them at window_base.
    const double* window_base = nullptr;
    std::int64_t window_first = 0;
    std::int64_t window_end = 0;
    std::int64_t reader_block = -1;  ///< block of the reader's last read
    bool attached = true;            ///< guarded by mutex
    std::atomic<bool> closing{false};  ///< the set is going: stop walking
    std::atomic<int> refs{1};  ///< the set's, plus one per posted look-ahead

    /// Where row `slot` lives in the ring: block k in half k % 2.
    [[nodiscard]] double* ring_row(std::int64_t slot) const noexcept;

    /// Walks the models over rows [frontier, end) into the ring, one row at
    /// a time, each published as it completes; a look-ahead (not
    /// `by_reader`) stops early once the set is closing. Caller holds
    /// `mutex`.
    void fill(std::int64_t end, bool by_reader);

    /// Drops one reference; the last one frees the state.
    void release() noexcept;
  };

  /// Detaches a stream's state from its dying set and drops the set's
  /// reference; see StreamState.
  struct StreamRelease {
    void operator()(StreamState* state) const noexcept;
  };

  /// Owning storage for `rows` rows left uninitialised; generate,
  /// fill_on_read and stream, which write every cell before anyone can read
  /// it, and the public constructor use it.
  struct Uninitialized {};
  SignalTraceSet(std::size_t users, std::int64_t slots, std::int64_t rows, Uninitialized);

  /// Fills whole blocks from the frontier through the block holding `slot`,
  /// on the calling thread, allocating nothing.
  void fill_through(std::int64_t slot) const;

  /// A stream read outside the reader's window: rejects reads behind the
  /// reader's block, posts the next block's look-ahead on entering a block,
  /// makes row `slot` filled (see stream) and moves the window.
  [[nodiscard]] const double* stream_row(std::int64_t slot) const;

  /// The posted task: fills the stream through block `through_block` unless
  /// its set is gone, then drops the task's reference.
  static void look_ahead(StreamState* state, std::int64_t through_block) noexcept;

  /// The matrix fill routine: writes user `user`'s cells of rows
  /// [begin, end) by walking `model` over those slots in order. Const
  /// because a fill-on-read set fills from its const readers; only rows no
  /// reader can have read yet are written.
  void walk_rows(std::size_t user, SignalModel& model, std::int64_t begin,
                 std::int64_t end) const;

  std::size_t users_ = 0;
  std::int64_t slots_ = 0;
  std::unique_ptr<double[]> signal_;  ///< sig_i(n), dBm: the matrix or a stream's ring
  std::unique_ptr<FillState> fill_;   ///< fill-on-read mode only
  /// Stream mode only. Declared after signal_, so it is detached — and a
  /// running look-ahead has stopped writing — before the ring is freed.
  std::unique_ptr<StreamState, StreamRelease> stream_;
};

}  // namespace jstream
