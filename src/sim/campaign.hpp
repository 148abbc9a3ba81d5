// Campaign engine: runs a scheduler x seed grid of experiments on the thread
// pool while sharing each scenario's channel substrate across every
// scheduler and replication that needs it. Per-cell work drops from
// "generate 10000-slot traces, then simulate" to "simulate against shared
// matrices" — the trace is created once per (scenario, seed) by the first
// cell that looks it up, served out of a byte-budgeted LRU cache, and
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

/// Generic campaign executor both the batch and service engines run on: for
/// each cell index, resolve its trace identity via `cell_of(i)` →
/// CampaignCell, serve the shared substrate out of the trace cache (or
/// regenerate per cell with `use_trace_cache` off), and run
/// `run_cell(i, trace)` on the pool. Order-preserving; results are returned
/// in cell order. Both callables run on pool workers, concurrently.
///
/// Each cell makes exactly one cache lookup, on its own worker: a miss only
/// builds the users' signal models and allocates the fill-on-read matrix,
/// and concurrent lookups of one key share that one creation.
template <typename CellOf, typename RunCell>
[[nodiscard]] auto run_campaign_cells(std::size_t cells, const CampaignOptions& options,
                                      CellOf&& cell_of, RunCell&& run_cell) {
  note_campaign_cells(cells);
  TraceCache* cache = options.cache != nullptr ? options.cache : &global_trace_cache();
  // Declared after everything its tasks touch, so it is destroyed first.
  ThreadPool pool(options.threads);
  return parallel_map(pool, cells, [&](std::size_t i) {
    const CampaignCell cell = cell_of(i);
    std::shared_ptr<const SignalTraceSet> trace =
        options.use_trace_cache
            ? cache->get_or_generate(*cell.scenario, cell.session_fingerprint)
            : generate_signal_trace_set(*cell.scenario);
    return run_cell(i, std::move(trace));
  });
}

}  // namespace jstream
