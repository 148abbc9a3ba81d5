// Shared plumbing for the experiment binaries: common flags (--users,
// --slots, --seed, --csv, --threads, --telemetry, --validate), the
// REPRO_SLOTS environment override, CSV export of figure series, and the
// telemetry artifact every figure bench drops next to its CSV results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"

namespace jstream::bench {

/// Flags every experiment binary accepts.
struct CommonArgs {
  std::size_t users = 40;
  std::int64_t slots = 10000;
  std::uint64_t seed = 42;
  std::string csv_dir;     ///< empty = no CSV export
  std::size_t threads = 0; ///< sweep parallelism; 0 = hardware concurrency
  bool telemetry = false;  ///< print the registry dump when the bench exits
  bool validate = false;   ///< run every slot through the paper-invariant validator
};

/// Builds a Cli pre-populated with the common flags.
[[nodiscard]] Cli make_cli(const std::string& program, const std::string& description,
                           std::int64_t default_slots = 10000,
                           std::size_t default_users = 40);

/// Parses argv; prints help and exits(0) on --help; applies REPRO_SLOTS.
[[nodiscard]] CommonArgs parse_common(Cli& cli, int argc, const char* const* argv);

/// Runs a spec grid through the campaign engine: sharded over --threads
/// workers with every cell reading its channel from the process-wide trace
/// cache (one generation per scenario/seed instead of one per cell). Results
/// are order-preserving, bit-identical to a serial run_experiment loop.
[[nodiscard]] std::vector<RunMetrics> run_grid(const CommonArgs& args,
                                               std::span<const ExperimentSpec> specs,
                                               bool keep_series = false);

/// One degraded-cell intensity of the fault sweep.
struct FaultLevel {
  std::string name;
  FaultConfig faults;
};

/// The fault sweep's intensity levels, in order: none, low, medium, high
/// (bench_fault_sweep tabulates them; bench_perf_gate runs the three that
/// fault).
[[nodiscard]] const std::vector<FaultLevel>& fault_sweep_levels();

/// The fault sweep's schedulers: all seven factory schedulers, in order.
[[nodiscard]] const std::vector<std::string>& fault_sweep_schedulers();

/// Writes `rows` to `<csv_dir>/<file>` when csv_dir is non-empty.
void maybe_write_csv(const std::string& csv_dir, const std::string& file,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<std::string>>& rows);

/// Prints an empirical CDF as a two-column series table.
void print_cdf_table(const std::string& title, const std::string& value_label,
                     const std::vector<double>& samples, std::size_t points = 20);

/// Standard entry-point wrapper: runs `body`, reporting jstream::Error
/// cleanly instead of crashing. On success it finishes the telemetry side of
/// the run: with a CSV directory configured (parse_common saw --csv) it
/// writes `<csv_dir>/<program>_telemetry.json` next to the figure's results,
/// and with --telemetry it prints the registry dump.
int guarded_main(const std::string& program, int argc, const char* const* argv,
                 int (*body)(int, const char* const*));

}  // namespace jstream::bench
