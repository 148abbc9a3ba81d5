#include "sim/trace_cache.hpp"

#include <bit>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "sim/trace_store.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scoped_timer.hpp"

namespace jstream {

namespace {

struct TraceCacheTelemetry {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& evictions;
  telemetry::Counter& promotions;
  telemetry::Histogram& generate_latency_us;

  static TraceCacheTelemetry& instance() {
    auto& registry = telemetry::global_registry();
    static TraceCacheTelemetry probes{
        registry.counter("trace_cache.hits"), registry.counter("trace_cache.misses"),
        registry.counter("trace_cache.evictions"),
        registry.counter("trace_cache.promotions"),
        registry.histogram("trace_cache.generate_latency_us")};
    return probes;
  }
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& hash, double value) noexcept {
  fnv_mix(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t hash_trace(const std::vector<double>& trace) noexcept {
  std::uint64_t hash = kFnvOffset;
  for (double sample : trace) fnv_mix(hash, sample);
  return hash;
}

// Behavioural fingerprint: two link models that answer identically at the
// probe signals produce bit-identical derived matrices over the clamped
// signal range, so they can share cache entries even when the shared_ptr
// identities differ (every paper_scenario() builds a fresh LinkModel).
std::uint64_t link_fingerprint(const LinkModel& link) {
  require(link.throughput != nullptr && link.power != nullptr,
          "link model must be complete");
  std::uint64_t hash = kFnvOffset;
  for (double dbm : {-110.0, -95.0, -80.0, -65.0, -50.0}) {
    fnv_mix(hash, link.throughput->throughput_kbps(dbm));
    fnv_mix(hash, link.power->energy_per_kb(dbm));
  }
  return hash;
}

bool same(const SineSignalParams& a, const SineSignalParams& b) noexcept {
  return a.min_dbm == b.min_dbm && a.max_dbm == b.max_dbm &&
         a.period_slots == b.period_slots && a.phase_radians == b.phase_radians &&
         a.noise_stddev_db == b.noise_stddev_db;
}

bool same(const GaussMarkovSignalModel::Params& a,
          const GaussMarkovSignalModel::Params& b) noexcept {
  return a.mean_dbm == b.mean_dbm && a.rho == b.rho &&
         a.noise_stddev_db == b.noise_stddev_db && a.min_dbm == b.min_dbm &&
         a.max_dbm == b.max_dbm;
}

}  // namespace

bool TraceKey::operator==(const TraceKey& other) const noexcept {
  return users == other.users && slots == other.slots && seed == other.seed &&
         kind == other.kind && vbr == other.vbr && same(sine, other.sine) &&
         same(gauss_markov, other.gauss_markov) && trace_hash == other.trace_hash &&
         link_fingerprint == other.link_fingerprint &&
         fault_fingerprint == other.fault_fingerprint &&
         session_fingerprint == other.session_fingerprint &&
         forecast_fingerprint == other.forecast_fingerprint;
}

std::uint64_t trace_key_fingerprint(const TraceKey& key) noexcept {
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, static_cast<std::uint64_t>(key.users));
  fnv_mix(hash, static_cast<std::uint64_t>(key.slots));
  fnv_mix(hash, key.seed);
  fnv_mix(hash, static_cast<std::uint64_t>(key.kind));
  fnv_mix(hash, static_cast<std::uint64_t>(key.vbr));
  fnv_mix(hash, key.sine.min_dbm);
  fnv_mix(hash, key.sine.max_dbm);
  fnv_mix(hash, key.sine.period_slots);
  fnv_mix(hash, key.sine.phase_radians);
  fnv_mix(hash, key.sine.noise_stddev_db);
  fnv_mix(hash, key.gauss_markov.mean_dbm);
  fnv_mix(hash, key.gauss_markov.rho);
  fnv_mix(hash, key.gauss_markov.noise_stddev_db);
  fnv_mix(hash, key.gauss_markov.min_dbm);
  fnv_mix(hash, key.gauss_markov.max_dbm);
  fnv_mix(hash, key.trace_hash);
  fnv_mix(hash, key.link_fingerprint);
  fnv_mix(hash, key.fault_fingerprint);
  fnv_mix(hash, key.session_fingerprint);
  // Post-format fields fold in only when active: an inactive forecast spec
  // leaves the fingerprint — and therefore every existing TraceStore file
  // name — byte-identical to the pre-field fold (see the header contract).
  if (key.forecast_fingerprint != 0) fnv_mix(hash, key.forecast_fingerprint);
  return hash;
}

std::size_t TraceKeyHash::operator()(const TraceKey& key) const noexcept {
  // jstream-lint: allow(checked-narrowing) -- hash fold, not an index: the
  // 64-bit fingerprint truncates to whatever width unordered_map buckets use.
  return static_cast<std::size_t>(trace_key_fingerprint(key));
}

TraceKey make_trace_key(const ScenarioConfig& config,
                        std::uint64_t session_fingerprint) {
  TraceKey key;
  key.users = config.users;
  key.slots = config.max_slots;
  key.seed = config.seed;
  key.kind = config.signal_kind;
  // VBR switches the bitrate builder from a uniform() draw to a pure split,
  // shifting every RNG draw that follows it (including the sine phase), so
  // it is part of the trace identity even though bitrates are not.
  key.vbr = config.vbr;
  key.sine = config.signal;
  key.gauss_markov = config.gauss_markov;
  key.trace_hash = config.signal_kind == SignalKind::kTrace
                       ? hash_trace(config.trace_dbm)
                       : 0;
  key.link_fingerprint = link_fingerprint(config.link);
  key.fault_fingerprint = fault_fingerprint(config.faults);
  key.session_fingerprint = session_fingerprint;
  key.forecast_fingerprint = forecast_fingerprint(config.forecast);
  return key;
}

std::shared_ptr<const SignalTraceSet> generate_signal_trace_set(
    const ScenarioConfig& config) {
  auto& probes = TraceCacheTelemetry::instance();
  telemetry::ScopedTimer timer(probes.generate_latency_us);
  // build_endpoints constructs every user's SignalModel with exactly the
  // per-user RNG stream the incremental path would use; walking those models
  // slot-by-slot reproduces its values bit-for-bit.
  std::vector<UserEndpoint> endpoints = build_endpoints(config);
  auto set = std::make_shared<SignalTraceSet>(config.users, config.max_slots);
  for (std::size_t user = 0; user < endpoints.size(); ++user) {
    set->fill_user(user, *endpoints[user].signal);
  }
  set->derive_link(config.link);
  return set;
}

TraceCache::TraceCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

std::shared_ptr<const SignalTraceSet> TraceCache::get_or_generate(
    const ScenarioConfig& config, std::uint64_t session_fingerprint) {
  auto& probes = TraceCacheTelemetry::instance();
  const TraceKey key = make_trace_key(config, session_fingerprint);
  TraceFuture future;
  std::promise<std::shared_ptr<const SignalTraceSet>> promise;
  bool generate = false;
  std::uint64_t serial = 0;
  TraceStore* store = nullptr;
  std::vector<SpillItem> spill;
  {
    const std::lock_guard lock(mutex_);
    store = store_;
    const auto found = index_.find(key);
    if (found != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, found->second);
      future = found->second->future;
    } else {
      ++misses_;
      generate = true;
      serial = next_serial_++;
      future = promise.get_future().share();
      lru_.push_front(Entry{key, future,
                            SignalTraceSet::estimate_bytes(config.users,
                                                           config.max_slots),
                            serial});
      resident_bytes_ += lru_.front().bytes;
      index_.emplace(key, lru_.begin());
      evict_locked(spill);
    }
  }
  if (store != nullptr) spill_items(*store, spill);
  if (telemetry::enabled()) {
    (generate ? probes.misses : probes.hits).add();
  }
  // Set when eviction dropped this call's entry mid-generation (see below).
  std::shared_ptr<const SignalTraceSet> orphan;
  if (generate) {
    try {
      std::shared_ptr<const SignalTraceSet> set;
      // Persistent tier first: a warm store serves the matrices zero-copy out
      // of the page cache instead of rerunning the generation pipeline.
      if (store != nullptr) {
        set = store->try_load(trace_key_fingerprint(key), config.users,
                              config.max_slots);
      }
      const bool promoted = set != nullptr;
      if (!promoted) set = generate_signal_trace_set(config);
      promise.set_value(set);
      {
        const std::lock_guard lock(mutex_);
        ++(promoted ? promotions_ : generations_);
        // Eviction may have dropped this entry while it was generating (or
        // dropped it and a later miss re-inserted the key): then no resident
        // entry carries this set, so neither evict_locked nor spill_resident
        // will ever see it. Spill it below or the store never receives it.
        const auto found = index_.find(key);
        store = store_;
        if (!promoted && store != nullptr &&
            (found == index_.end() || found->second->serial != serial)) {
          orphan = set;
        }
      }
      if (promoted && telemetry::enabled()) probes.promotions.add();
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Forget the poisoned entry so a later call retries; waiters already
      // holding the future still observe the exception.
      const std::lock_guard lock(mutex_);
      const auto found = index_.find(key);
      if (found != index_.end() && found->second->serial == serial) {
        resident_bytes_ -= found->second->bytes;
        lru_.erase(found->second);
        index_.erase(found);
      }
      throw;
    }
  }
  if (orphan != nullptr) store->put(trace_key_fingerprint(key), *orphan);
  return future.get();
}

void TraceCache::attach_store(TraceStore* store) {
  const std::lock_guard lock(mutex_);
  store_ = store;
}

TraceStore* TraceCache::store() const {
  const std::lock_guard lock(mutex_);
  return store_;
}

void TraceCache::spill_resident() {
  TraceStore* store = nullptr;
  std::vector<SpillItem> items;
  {
    const std::lock_guard lock(mutex_);
    store = store_;
    if (store == nullptr) return;
    items.reserve(lru_.size());
    for (const Entry& entry : lru_) {
      if (entry.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;  // generation still in flight on another thread
      }
      std::shared_ptr<const SignalTraceSet> set;
      try {
        set = entry.future.get();
      } catch (...) {
        continue;  // poisoned entry; nothing to persist
      }
      if (set != nullptr) {
        items.push_back(SpillItem{trace_key_fingerprint(entry.key), set});
      }
    }
  }
  spill_items(*store, items);
}

std::size_t TraceCache::max_bytes() const {
  const std::lock_guard lock(mutex_);
  return max_bytes_;
}

void TraceCache::set_max_bytes(std::size_t max_bytes) {
  TraceStore* store = nullptr;
  std::vector<SpillItem> spill;
  {
    const std::lock_guard lock(mutex_);
    store = store_;
    max_bytes_ = max_bytes;
    evict_locked(spill);
  }
  if (store != nullptr) spill_items(*store, spill);
}

void TraceCache::evict_locked(std::vector<SpillItem>& spill) {
  auto& probes = TraceCacheTelemetry::instance();
  while (lru_.size() > 1 && resident_bytes_ > max_bytes_) {
    const Entry& victim = lru_.back();
    // Spill completed victims so the persistent tier can answer the next
    // miss. An entry whose generation is still in flight is dropped here
    // without spilling: its generating thread finds the entry gone from the
    // index when it finishes and spills the set itself (get_or_generate).
    if (store_ != nullptr &&
        victim.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      std::shared_ptr<const SignalTraceSet> set;
      try {
        set = victim.future.get();
      } catch (...) {
        set = nullptr;  // poisoned entry; nothing to persist
      }
      if (set != nullptr) {
        spill.push_back(SpillItem{trace_key_fingerprint(victim.key), set});
      }
    }
    resident_bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
    if (telemetry::enabled()) probes.evictions.add();
  }
}

void TraceCache::spill_items(TraceStore& store,
                             const std::vector<SpillItem>& items) {
  for (const SpillItem& item : items) {
    store.put(item.fingerprint, *item.set);
  }
}

std::size_t TraceCache::size() const {
  const std::lock_guard lock(mutex_);
  return lru_.size();
}

std::size_t TraceCache::resident_bytes() const {
  const std::lock_guard lock(mutex_);
  return resident_bytes_;
}

std::uint64_t TraceCache::hits() const {
  const std::lock_guard lock(mutex_);
  return hits_;
}

std::uint64_t TraceCache::misses() const {
  const std::lock_guard lock(mutex_);
  return misses_;
}

std::uint64_t TraceCache::evictions() const {
  const std::lock_guard lock(mutex_);
  return evictions_;
}

std::uint64_t TraceCache::generations() const {
  const std::lock_guard lock(mutex_);
  return generations_;
}

std::uint64_t TraceCache::promotions() const {
  const std::lock_guard lock(mutex_);
  return promotions_;
}

void TraceCache::clear() {
  const std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
  resident_bytes_ = 0;
}

TraceCache& global_trace_cache() {
  static TraceCache cache;
  return cache;
}

}  // namespace jstream
