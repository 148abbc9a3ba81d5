// Scaling study: wall-clock cost of a full simulation as the population
// grows well beyond the paper's 40 users. Establishes the simulator's and
// each scheduler's complexity envelope and contrasts the per-run channel
// path against the campaign engine's cached-trace path — at N=1000 the
// per-slot signal/link evaluations are a visible share of the run.
//
// The exact EMA row runs unskipped at every population, N = 1000 included:
// the solver's separable fast path keeps the slot solve linear whenever the
// capacity does not bind.
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

using namespace jstream;
using namespace jstream::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

int run(int argc, const char* const* argv) {
  Cli cli = make_cli("bench_scaling_users", "simulation wall-clock vs population",
                     3000, 40);
  const CommonArgs args = parse_common(cli, argc, argv);

  Table table("scaling: full-run wall clock (s), per-run vs cached trace",
              {"users", "scheduler", "uncached (s)", "cached (s)", "speedup"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t users : {20UL, 40UL, 80UL, 160UL, 1000UL}) {
    ScenarioConfig scenario = paper_scenario(users, args.seed);
    scenario.max_slots = args.slots;
    // Scale the pipe with the population so sessions still complete.
    scenario.capacity_kbps = 500.0 * as_double(users);

    // Warm the cache outside the timed region: the cached column isolates
    // the slot-path win once the substrate is resident (a campaign pays the
    // generation once across all schedulers and replications). A cache miss
    // fills on read, so fill every row here rather than in the first timed
    // run.
    const std::shared_ptr<const SignalTraceSet> trace =
        global_trace_cache().get_or_generate(scenario);
    (void)trace->signal_data();

    for (const char* name : {"default", "rtma", "ema-fast", "ema"}) {
      SchedulerOptions options;
      options.ema.v_weight = 0.05;
      const ExperimentSpec spec{name, name, scenario, options};

      auto start = std::chrono::steady_clock::now();
      const RunMetrics uncached = run_experiment(spec, false);
      const double wall_uncached = seconds_since(start);

      start = std::chrono::steady_clock::now();
      const RunMetrics cached = run_experiment(spec, false, trace);
      const double wall_cached = seconds_since(start);
      require(cached.slots_run == uncached.slots_run &&
                  cached.total_energy_mj() == uncached.total_energy_mj(),
              "cached trace run diverged from the per-run path");

      const double speedup = wall_cached > 0.0 ? wall_uncached / wall_cached : 0.0;
      table.row({std::to_string(users), name, format_double(wall_uncached, 3),
                 format_double(wall_cached, 3), format_double(speedup, 2) + "x"});
      csv_rows.push_back({std::to_string(users), name,
                          format_double(wall_uncached, 4),
                          format_double(wall_cached, 4),
                          format_double(cached.avg_energy_per_user_slot_mj(), 2)});
    }
  }
  table.print();

  maybe_write_csv(args.csv_dir, "scaling_users.csv",
                  {"users", "scheduler", "wall_uncached_s", "wall_cached_s", "pe_mj"},
                  csv_rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main("bench_scaling_users", argc, argv, run);
}
