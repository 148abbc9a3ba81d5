// The benchmark's three workloads, driven through the library's top-level
// entry points only: paper_scenario / ScenarioConfig, make_scheduler,
// Framework::run_slot, ServiceSimulator::step / finish, run_campaign and the
// RunMetrics / ServiceMetrics accessors. Nothing here calls an internal that
// the slot path may reshape, so the untraced program keeps building when one
// is deleted. The traced program (traced.hpp) adds those calls on its own.
//
// Every workload is cut into rounds. A round builds its inputs from the seed
// (the set-up, timed as `setup_s`), runs a fixed amount of work (the timed
// section) and digests its outputs. A run repeats rounds until its time is
// up. Rounds of one input variant (the sweep cycles through seed batches)
// have the same outputs, so PE/PC repeat exactly for a seed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "session/service.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

enum class Workload { kEmaCongested, kFaultSweep, kServiceChurn };

/// Parses a workload name; throws std::invalid_argument for unknown names.
[[nodiscard]] Workload parse_workload(const std::string& name);

// --- ema-congested-n100 ------------------------------------------------------
inline constexpr std::size_t kEmaUsers = 100;
/// Capacity as a share of the drawn population's total bitrate: 400 KB/s per
/// user against the 450 KB/s mean, so Eq. 2 binds, and the deficit (which
/// sets PC) is the same share on every seed.
inline constexpr double kEmaCapacityShare = 400.0 / 450.0;
/// EMA's queues need about 1000 slots before the DP runs in every slot.
inline constexpr std::int64_t kEmaWarmupSlots = 1000;
/// 1000 slots leave ten samples beyond a round's p99; short rounds give a run
/// many repeats.
inline constexpr std::int64_t kEmaMeasuredSlots = 1000;

/// The congested cell: paper_scenario(100) with 5-8 GB videos, so every
/// session outlives the round, and its endpoints.
struct EmaCell {
  jstream::ScenarioConfig config;
  std::vector<jstream::UserEndpoint> endpoints;
};
[[nodiscard]] EmaCell make_ema_cell(std::uint64_t seed);

// --- faultsweep-n40 ----------------------------------------------------------
inline constexpr std::size_t kSweepUsers = 40;
inline constexpr std::int64_t kSweepHorizonSlots = 10000;
/// Replication seeds per round: a round runs 28 cells per seed.
inline constexpr std::size_t kSweepSeeds = 4;
/// Rounds cycle through this many disjoint seed batches. PC varies from seed
/// to seed with the outage draws, so PE and PC are means over all batches
/// (32 seeds) while one round holds only one batch's traces.
inline constexpr std::size_t kSweepBatches = 8;

/// A sweep grid whose every trace is generated before anything is timed.
struct SweepSetup {
  std::unique_ptr<jstream::TraceCache> cache;
  /// Seed-major, then level, then scheduler: cell (s, l, k) is
  /// specs[(s * levels + l) * schedulers + k].
  std::vector<jstream::ExperimentSpec> specs;
  std::vector<double> generate_s;   ///< host time of each trace generation
  std::uint64_t generations = 0;    ///< traces generated by the set-up
};

/// First replication seed of batch `batch` of a workload seed's grid; distinct
/// workload seeds and batches run disjoint seeds.
[[nodiscard]] std::uint64_t sweep_first_seed(std::uint64_t seed, std::size_t batch);

/// Builds the grid for replication seeds first_seed .. first_seed + seeds -
/// 1: generates the four traces of each, then runs each one's benign default
/// reference to set RTMA's Eq. 12 budget at alpha = 1 (from the cache).
[[nodiscard]] SweepSetup prepare_sweep(std::uint64_t first_seed, std::size_t seeds);

/// run_campaign over the whole grid on all host threads, per-slot series kept.
[[nodiscard]] std::vector<jstream::RunMetrics> run_sweep_campaign(const SweepSetup& setup);

/// Simulator::run's early-stop rule: every session done (a departed one
/// counts as done) for a full RRC tail-flush window.
class EarlyStop {
 public:
  explicit EarlyStop(const jstream::ScenarioConfig& config);
  /// Call once after each slot; true when the run would stop.
  [[nodiscard]] bool done(std::int64_t slot, std::span<const jstream::UserEndpoint> endpoints);

 private:
  bool enabled_;
  std::int64_t flush_slots_;
  std::int64_t idle_streak_ = 0;
};

// --- service-churn-n1000 -----------------------------------------------------
inline constexpr std::size_t kServicePopulation = 1000;
inline constexpr double kServiceCapacityPerSlotKbps = 500.0;
inline constexpr std::int64_t kServiceWarmupSlots = 300;
inline constexpr std::int64_t kServiceMeasuredSlots = 1000;

/// Arrivals per slot as a share of the population. Sessions stay ~54 slots,
/// so about 72% of the population is bound on average; the margin keeps
/// arrival bursts from ever finding the population full.
inline constexpr double kServiceArrivalShare = 1.0 / 75.0;

/// ServiceSimulator config: Poisson arrivals of 2-20 MB sessions,
/// accept-all admission, no faults, live channels.
[[nodiscard]] jstream::ServiceConfig service_churn_config(std::uint64_t seed);

// --- rounds ------------------------------------------------------------------

/// What one round produced.
struct Round {
  double setup_s = 0.0;           ///< host time before the timed section
  double timed_s = 0.0;           ///< host time of the timed section
  double user_slots = 0.0;        ///< simulated user-slots in the timed section
  std::vector<double> slot_us;    ///< host time of each timed slot
  std::int64_t operations = 0;    ///< slots timed, or cells run for the sweep
  std::vector<std::uint64_t> digests;  ///< one per round, or one per cell
  double pe_mj = 0.0;             ///< simulated PE (Eq. 6), mJ per user-slot
  double pc_ms = 0.0;             ///< simulated PC (Eq. 9), ms per user-slot
  std::vector<std::string> shape_errors;  ///< workload-shape checks that failed
};

/// Operations one round runs: measured slots, or the sweep's cells.
[[nodiscard]] std::int64_t expected_operations(Workload workload);

/// Distinct inputs a workload's rounds cycle through: the sweep's seed
/// batches, one for the others. Rounds of one variant repeat each other.
[[nodiscard]] std::size_t round_variants(Workload workload);

/// Runs one round of `workload` for `seed` on input variant `variant`. For
/// the sweep, the per-slot latencies come from a single-thread replay of the
/// batch's first seed's 28 cells after the campaign (their digests must
/// match the campaign's).
[[nodiscard]] Round run_round(Workload workload, std::uint64_t seed, std::size_t variant);

/// True when `digests` starts with `prefix` and `prefix` is not empty: a
/// round (or its first cells) matches the validation pass.
[[nodiscard]] bool matches_prefix(const std::vector<std::uint64_t>& digests,
                                  const std::vector<std::uint64_t>& prefix);

/// Runs the workload's untimed validation pass: variant 0's inputs with the
/// paper-invariant checker on. The sweep validates the first seed's 28
/// cells. Returns the digests to compare with a timed round's.
[[nodiscard]] std::vector<std::uint64_t> run_validation_pass(Workload workload,
                                                             std::uint64_t seed);

}  // namespace perfbench
