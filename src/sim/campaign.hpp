// Campaign engine: runs a scheduler x seed grid of experiments on the thread
// pool while sharing each scenario's channel substrate across every
// scheduler and replication that needs it. Per-cell work drops from
// "generate 10000-slot traces, then simulate" to "simulate against shared
// matrices" — the trace is created once per (scenario, seed), the grid's
// distinct traces in parallel, served out of a byte-budgeted LRU cache, and
// filled on read: each row is computed once, by the first cell to reach it,
// and rows past the grid's longest cell are never computed.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/trace_cache.hpp"

namespace jstream {

/// One scheduler series in a campaign grid (label + factory name + options);
/// the grid crosses these with the replication seeds.
struct CampaignSeries {
  std::string label;
  std::string scheduler;
  SchedulerOptions options;
};

/// Execution knobs for run_campaign.
struct CampaignOptions {
  std::size_t threads = 0;       ///< pool size, 0 = hardware concurrency
  bool keep_series = false;      ///< retain per-slot series in each RunMetrics
  bool use_trace_cache = true;   ///< false = regenerate the trace per cell
  TraceCache* cache = nullptr;   ///< trace cache; null = global_trace_cache()
  /// Persistent trace tier (see sim/trace_store.hpp): attached to the cache
  /// for the duration of the run, so evictions spill to disk and misses
  /// promote from it; the whole resident working set is flushed to it at end
  /// of run. Null = in-memory caching only. Not owned; must outlive the run.
  TraceStore* store = nullptr;
};

/// Builds the scheduler x seed grid: for each replication `rep` (seed =
/// base.seed + rep), one spec per series. Results are rep-major —
/// `result[rep * series.size() + s]` is series `s` under seed base.seed+rep —
/// so chunked parallel execution keeps each shard on few distinct seeds and
/// the shared trace cache hot.
[[nodiscard]] std::vector<ExperimentSpec> make_campaign_grid(
    const ScenarioConfig& base, std::span<const CampaignSeries> series,
    std::size_t replications);

/// Runs every spec on the pool, each result bit-identical to
/// run_experiment(spec, keep_series) and in spec order, with the channel
/// substrate shared through the trace cache. With `use_trace_cache` off each
/// cell generates its own full-horizon trace — same results, bit for bit;
/// this is the baseline the perf gate measures against. Faulted specs share
/// one fault schedule per distinct (seed, users, horizon, fault_fingerprint),
/// drawn by the first cell that needs it and released when the campaign returns.
[[nodiscard]] std::vector<RunMetrics> run_campaign(
    std::span<const ExperimentSpec> specs, const CampaignOptions& options = {});

/// Trace identity of one campaign cell: the scenario that defines the channel
/// substrate plus the extra key component service-mode runs contribute
/// (TraceKey::session_fingerprint, 0 for batch cells).
struct CampaignCell {
  const ScenarioConfig* scenario = nullptr;
  std::uint64_t session_fingerprint = 0;
};

/// Bumps the campaign.* telemetry counters (one grid of `cells` cells).
void note_campaign_cells(std::size_t cells);

/// The lead cell of each distinct trace key, in grid order: the first cell
/// that needs the key. Only the leading keys whose
/// SignalTraceSet::estimate_bytes sum fits `budget_bytes` are returned, so
/// prefetching them cannot evict one another from a cache of that budget.
[[nodiscard]] std::vector<std::size_t> lead_cells(std::span<const CampaignCell> cells,
                                                  std::size_t budget_bytes);

/// Attaches a persistent store to a cache for one campaign's lifetime and
/// flushes the cache's resident working set to it on the way out (so a warm
/// store holds every trace the campaign touched, not just LRU overflow).
class ScopedStoreAttachment {
 public:
  ScopedStoreAttachment(TraceCache& cache, TraceStore* store)
      : cache_(cache), store_(store) {
    if (store_ != nullptr) cache_.attach_store(store_);
  }
  ~ScopedStoreAttachment() {
    if (store_ == nullptr) return;
    try {
      cache_.spill_resident();
    } catch (...) {
      // Best-effort flush: a full disk must not mask the campaign's results.
    }
    cache_.attach_store(nullptr);
  }
  ScopedStoreAttachment(const ScopedStoreAttachment&) = delete;
  ScopedStoreAttachment& operator=(const ScopedStoreAttachment&) = delete;

 private:
  TraceCache& cache_;
  TraceStore* store_;
};

/// Generic campaign executor both the batch and service engines run on: for
/// each cell index, resolve its trace identity via `cell_of(i)` →
/// CampaignCell, serve the shared substrate out of the trace cache (or
/// regenerate per cell with `use_trace_cache` off), and run
/// `run_cell(i, trace)` on the pool. Order-preserving; results are returned
/// in cell order.
///
/// With the cache on, a lead pass first fetches every distinct key's trace
/// once, in parallel on the same pool (see lead_cells for the byte cap), so
/// the grid's generations overlap instead of queueing behind whichever cell
/// reaches a seed first. Each cell still makes exactly one cache lookup: a
/// lead cell runs on the pointer its prefetch returned; keys past the cap
/// load on demand.
template <typename CellOf, typename RunCell>
[[nodiscard]] auto run_campaign_cells(std::size_t cells, const CampaignOptions& options,
                                      CellOf&& cell_of, RunCell&& run_cell) {
  note_campaign_cells(cells);
  TraceCache* cache = options.cache != nullptr ? options.cache : &global_trace_cache();
  const ScopedStoreAttachment attachment(
      *cache, options.use_trace_cache ? options.store : nullptr);
  std::vector<CampaignCell> identity;
  identity.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) identity.push_back(cell_of(i));
  const auto fetch = [&](std::size_t i) {
    return options.use_trace_cache
               ? cache->get_or_generate(*identity[i].scenario,
                                        identity[i].session_fingerprint)
               : generate_signal_trace_set(*identity[i].scenario);
  };
  std::vector<std::shared_ptr<const SignalTraceSet>> prefetched(cells);

  // Declared after everything its tasks touch, so it is destroyed first.
  ThreadPool pool(options.threads);
  if (options.use_trace_cache) {
    const std::vector<std::size_t> leads = lead_cells(identity, cache->max_bytes());
    parallel_for(pool, leads.size(),
                 [&](std::size_t k) { prefetched[leads[k]] = fetch(leads[k]); });
  }
  return parallel_map(pool, cells, [&](std::size_t i) {
    std::shared_ptr<const SignalTraceSet> trace = std::move(prefetched[i]);
    if (trace == nullptr) trace = fetch(i);
    return run_cell(i, std::move(trace));
  });
}

}  // namespace jstream
