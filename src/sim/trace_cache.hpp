// Seed-keyed LRU cache of precomputed signal-trace sets.
//
// A campaign grid (schedulers x seeds over one scenario) replays the same
// channel trajectory once per cell; the cache collapses that to one
// generation per (scenario, seed) and hands every cell the same immutable
// std::shared_ptr<const SignalTraceSet>. Keys capture exactly the
// ScenarioConfig fields that influence the signal matrix — the population,
// horizon, seed, RSSI process parameters, the VBR flag (it changes the
// per-user RNG draw order ahead of the signal-model construction), and a
// behavioural fingerprint of the link model (probed, not pointer-compared,
// so two configs holding separately-constructed paper link models share
// entries). Fault intensities also join the key, as a fingerprint that is 0
// when faults are inactive: they never alter the matrices (faults apply at
// collect time, post-trace), but the isolation guarantees a faulted campaign
// and an unfaulted one can never serve each other's entries.
// Entries are evicted least-recently-used once the resident-byte
// budget is exceeded; the most recent entry is always retained. Concurrent
// lookups are safe: the first shard to miss generates while the map lock is
// released, and racing shards block on a shared future instead of
// duplicating the work.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "radio/signal_trace.hpp"
#include "sim/scenario.hpp"

namespace jstream {

/// Identity of one cached trace set. Two configs with equal keys produce
/// bit-identical SignalTraceSets.
struct TraceKey {
  std::size_t users = 0;
  std::int64_t slots = 0;
  std::uint64_t seed = 0;
  SignalKind kind = SignalKind::kSine;
  bool vbr = false;
  SineSignalParams sine;
  GaussMarkovSignalModel::Params gauss_markov;
  std::uint64_t trace_hash = 0;      ///< FNV over trace_dbm bit patterns
  std::uint64_t link_fingerprint = 0;  ///< hash of link-fit probes
  /// fault_fingerprint(config.faults): 0 when faults are inactive. Faults are
  /// applied at collect time, so the matrices of a faulted and an unfaulted
  /// run are bit-identical — the key still separates them so a faulted
  /// campaign can never alias (or be aliased by) an unfaulted entry.
  std::uint64_t fault_fingerprint = 0;
  /// arrival_fingerprint(...) of the service layer's arrival process: 0 for
  /// batch runs and zero-arrival service configs (which ARE the batch run,
  /// bit for bit, so sharing the entry is correct). Like faults, arrivals
  /// never alter the matrices — the channel substrate belongs to the
  /// population slot, not the session occupying it — but the key isolates
  /// service-mode campaigns from batch ones.
  std::uint64_t session_fingerprint = 0;
  /// forecast_fingerprint(config.forecast): 0 when the forecast error spec is
  /// inactive (perfect forecasts share entries with prediction-free runs —
  /// the matrices are identical and so is every scheduler's view of them).
  /// A noisy spec isolates its campaign cells: forecast noise never alters
  /// the matrices either, but two cells sweeping different error levels must
  /// not serve each other's entries.
  std::uint64_t forecast_fingerprint = 0;

  [[nodiscard]] bool operator==(const TraceKey& other) const noexcept;
};

/// Stable 64-bit identity of a trace key: an FNV-1a fold over every key
/// field. This is the fingerprint the persistent tier (TraceStore) names
/// files by and stamps into trace-set headers, so its value is part of the
/// on-disk contract — changing the fold invalidates every stored file (bump
/// kTraceSetFileVersion if that ever becomes necessary). Fields added after
/// the format shipped (forecast_fingerprint) fold in only when nonzero, so
/// every pre-existing key — and every `.jst` file named from one — keeps its
/// fingerprint byte-identical.
[[nodiscard]] std::uint64_t trace_key_fingerprint(const TraceKey& key) noexcept;

/// Hash functor for unordered_map<TraceKey, ...>.
struct TraceKeyHash {
  [[nodiscard]] std::size_t operator()(const TraceKey& key) const noexcept;
};

/// Extracts the trace identity of a scenario (see TraceKey).
/// `session_fingerprint` joins the key for service-mode runs (0 = batch).
[[nodiscard]] TraceKey make_trace_key(const ScenarioConfig& config,
                                      std::uint64_t session_fingerprint = 0);

/// Generates the full trace set for a scenario: builds the per-user signal
/// models exactly as build_endpoints does (same RNG stream order), walks
/// them over [0, max_slots), and derives the link matrices. Bit-identical to
/// the incremental per-slot path by construction.
[[nodiscard]] std::shared_ptr<const SignalTraceSet> generate_signal_trace_set(
    const ScenarioConfig& config);

class TraceStore;

/// Thread-safe byte-budgeted LRU cache over generate_signal_trace_set, with
/// an optional persistent tier underneath (attach_store): evicted entries
/// spill to disk and misses promote from disk (zero-copy mmap) before
/// falling back to regeneration.
class TraceCache {
 public:
  /// `max_bytes` budgets the resident trace matrices (estimate_bytes per
  /// entry); the most recently used entry is never evicted, so a single
  /// oversized scenario still caches. Default: 1 GiB.
  explicit TraceCache(std::size_t max_bytes = kDefaultMaxBytes);

  /// Returns the cached set for the config's trace key, generating it on a
  /// miss. Concurrent callers for the same key share one generation.
  /// Propagates generation failures (and forgets the entry so later calls
  /// retry). With a store attached, a miss consults the store before
  /// generating, and entries evicted by the insertion spill to the store.
  [[nodiscard]] std::shared_ptr<const SignalTraceSet> get_or_generate(
      const ScenarioConfig& config, std::uint64_t session_fingerprint = 0);

  /// Attaches (or detaches, with nullptr) the persistent tier. The store must
  /// outlive the cache or the next attach_store call. Not owned.
  void attach_store(TraceStore* store);
  [[nodiscard]] TraceStore* store() const;

  /// Spills every resident, fully-generated entry to the attached store (no
  /// eviction). Campaigns call this at end of run so a warm store holds the
  /// whole working set, not just what happened to overflow the LRU budget.
  /// No-op without a store.
  void spill_resident();

  [[nodiscard]] std::size_t max_bytes() const;
  void set_max_bytes(std::size_t max_bytes);

  [[nodiscard]] std::size_t size() const;            ///< resident entries
  [[nodiscard]] std::size_t resident_bytes() const;  ///< estimate over entries
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;
  /// Misses served by running the generation pipeline (a warm-store campaign
  /// should report zero of these).
  [[nodiscard]] std::uint64_t generations() const;
  /// Misses served zero-copy from the attached store.
  [[nodiscard]] std::uint64_t promotions() const;
  void clear();

  static constexpr std::size_t kDefaultMaxBytes = std::size_t{1} << 30;

 private:
  using TraceFuture = std::shared_future<std::shared_ptr<const SignalTraceSet>>;

  struct Entry {
    TraceKey key;
    TraceFuture future;
    std::size_t bytes = 0;     ///< estimate_bytes at insert time
    std::uint64_t serial = 0;  ///< unique per insertion; tells a re-insert apart
  };

  /// One evicted entry queued for a spill outside the lock.
  struct SpillItem {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const SignalTraceSet> set;
  };

  /// Drops LRU entries until the budget holds (keeps >= 1 entry). Caller
  /// must hold mutex_. When a store is attached, victims whose generation
  /// already completed are collected into `spill` — the caller writes them
  /// after releasing the lock (a spill is tens of MB of I/O; holding the
  /// cache mutex across it would serialize every concurrent shard). A victim
  /// still generating is spilled by its generating thread instead.
  void evict_locked(std::vector<SpillItem>& spill);

  /// Writes queued victims to `store`. Called without mutex_ held.
  static void spill_items(TraceStore& store, const std::vector<SpillItem>& items);

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<TraceKey, std::list<Entry>::iterator, TraceKeyHash> index_;
  std::size_t max_bytes_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t generations_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t next_serial_ = 0;
  TraceStore* store_ = nullptr;  ///< persistent tier; not owned
};

/// Process-wide cache shared by the campaign runner and the bench harness.
[[nodiscard]] TraceCache& global_trace_cache();

}  // namespace jstream
