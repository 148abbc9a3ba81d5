// Seed-keyed LRU cache of shared signal-trace sets.
//
// A campaign grid (schedulers x seeds over one scenario) replays the same
// channel trajectory once per cell; the cache collapses that to one set per
// (scenario, seed) and hands every cell the same
// std::shared_ptr<const SignalTraceSet>. A miss creates the set
// fill-on-read (SignalTraceSet::fill_on_read): it owns the users' signal
// models and fills blocks of rows as the cells first read them, so rows past
// the longest cell's last slot are never computed. Keys capture exactly the
// ScenarioConfig fields that influence the signal matrix — the population,
// horizon, seed, RSSI process parameters, and the VBR flag (it changes the
// per-user RNG draw order ahead of the signal-model construction). The link
// model is not part of the key: a trace stores sig_i(n) only, and the
// collector evaluates the Definition 3/4 fits per slot, so scenarios that
// differ only in their link model share one entry. Fault intensities join
// the key, as a fingerprint that is 0
// when faults are inactive: they never alter the matrices (faults apply at
// collect time, post-trace), but the isolation guarantees a faulted campaign
// and an unfaulted one can never serve each other's entries.
// Entries are evicted least-recently-used once the resident-byte
// budget is exceeded; the most recent entry is always retained. Concurrent
// lookups are safe: the first shard to miss creates the set while the map
// lock is released, and racing shards block on a shared future instead of
// duplicating the work. Cells reading one fill-on-read set concurrently fill
// it under the set's own mutex (SignalTraceSet::row).
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

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
  std::uint64_t trace_hash = 0;  ///< FNV over trace_dbm bit patterns
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
/// field, which TraceKeyHash truncates for the cache's index.
[[nodiscard]] std::uint64_t trace_key_fingerprint(const TraceKey& key) noexcept;

/// Hash functor for unordered_map<TraceKey, ...>.
struct TraceKeyHash {
  [[nodiscard]] std::size_t operator()(const TraceKey& key) const noexcept;
};

/// Extracts the trace identity of a scenario (see TraceKey).
/// `session_fingerprint` joins the key for service-mode runs (0 = batch).
[[nodiscard]] TraceKey make_trace_key(const ScenarioConfig& config,
                                      std::uint64_t session_fingerprint = 0);

/// Generates the complete trace set for a scenario: builds the per-user
/// signal models exactly as build_endpoints does (same RNG stream order) and
/// walks them over [0, max_slots) before returning. Bit-identical to the
/// incremental per-slot path, and to a cache miss's fill-on-read set, by
/// construction. Users are spread with parallel_for over
/// caller_or_shared_pool(): the caller's own pool when it is a pool worker,
/// else the process-wide shared pool. The uncached campaign path
/// (CampaignOptions::use_trace_cache off) uses it. Each call observes
/// trace_cache.generate_latency_us, as each cache miss does.
[[nodiscard]] std::shared_ptr<const SignalTraceSet> generate_signal_trace_set(
    const ScenarioConfig& config);

/// Thread-safe byte-budgeted LRU cache of fill-on-read trace sets.
class TraceCache {
 public:
  /// `max_bytes` budgets the resident trace matrices (estimate_bytes per
  /// entry); the most recently used entry is never evicted, so a single
  /// oversized scenario still caches. Default: 1 GiB.
  explicit TraceCache(std::size_t max_bytes = kDefaultMaxBytes);

  /// Returns the cached set for the config's trace key, creating it on a
  /// miss: a fill-on-read set whose rows fill on first read, so the
  /// trace_cache.generate_latency_us histogram times set creation (building
  /// the models and allocating the matrix), not the walks. Concurrent
  /// callers for the same key share one creation. Propagates creation
  /// failures (and forgets the entry so later calls retry).
  [[nodiscard]] std::shared_ptr<const SignalTraceSet> get_or_generate(
      const ScenarioConfig& config, std::uint64_t session_fingerprint = 0);

  [[nodiscard]] std::size_t max_bytes() const;
  void set_max_bytes(std::size_t max_bytes);

  [[nodiscard]] std::size_t size() const;            ///< resident entries
  [[nodiscard]] std::size_t resident_bytes() const;  ///< estimate over entries
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;
  /// Misses served by creating a new set (a creation that threw is not
  /// counted).
  [[nodiscard]] std::uint64_t generations() const;
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

  /// Drops LRU entries until the budget holds (keeps >= 1 entry). Caller
  /// must hold mutex_.
  void evict_locked();

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<TraceKey, std::list<Entry>::iterator, TraceKeyHash> index_;
  std::size_t max_bytes_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t generations_ = 0;
  std::uint64_t next_serial_ = 0;
};

/// Process-wide cache shared by the campaign runner and the bench harness.
[[nodiscard]] TraceCache& global_trace_cache();

}  // namespace jstream
