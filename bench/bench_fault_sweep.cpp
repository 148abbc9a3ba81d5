// Robustness sweep: PC/PE versus fault intensity for every factory policy.
//
// Runs all seven factory schedulers over the paper scenario at four degraded-
// cell intensity levels (benign / low / medium / high — deep-fade outages,
// capacity dips, mid-stream departures, stale feedback; see sim/fault.hpp and
// docs/ROBUSTNESS.md) and tabulates average energy (PE analogue), average
// rebuffering (PC analogue), completion rate, and Jain fairness per level.
// The grid runs through the campaign engine, so each level shares one cached
// channel substrate across the schedulers (fault intensities are part of the
// trace key). With --validate every slot of every cell passes the paper-
// invariant checker under faults — the acceptance gate for the fault layer.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/fault.hpp"

using namespace jstream;
using namespace jstream::bench;

namespace {

int run(int argc, const char* const* argv) {
  Cli cli = make_cli("bench_fault_sweep",
                     "Robustness: PC/PE vs degraded-cell fault intensity");
  const CommonArgs args = parse_common(cli, argc, argv);
  const std::vector<FaultLevel>& levels = fault_sweep_levels();
  const std::vector<std::string>& schedulers = fault_sweep_schedulers();

  // RTMA's Eq. 12 budget comes from the benign default-strategy reference,
  // as in the paper; the same options then face every fault level.
  ScenarioConfig base = paper_scenario(args.users, args.seed);
  base.max_slots = args.slots;
  TraceCache& cache = global_trace_cache();
  SchedulerOptions rtma_options =
      rtma_options_for_alpha(1.0, run_default_reference(base, &cache));

  std::vector<ExperimentSpec> specs;
  Table injected("Injected faults per level (" + std::to_string(args.users) +
                     " users, " + std::to_string(base.max_slots) + " slots)",
                 {"level", "outage slots", "stale slots", "departures",
                  "capacity windows"});
  for (const FaultLevel& level : levels) {
    ScenarioConfig scenario = base;
    scenario.faults = level.faults;
    const FaultSchedule schedule = make_fault_schedule(scenario);
    injected.row({level.name, std::to_string(schedule.total_outage_slots()),
                  std::to_string(schedule.total_stale_slots()),
                  std::to_string(schedule.departures()),
                  std::to_string(schedule.capacity_windows().size())});
    for (const std::string& name : schedulers) {
      ExperimentSpec spec{level.name + "/" + name, name, scenario, {}};
      if (spec.scheduler == "rtma") spec.options = rtma_options;
      specs.push_back(std::move(spec));
    }
  }
  injected.print();
  std::printf("\n");

  // keep_series: mean_fairness needs the per-slot Jain samples.
  const std::vector<RunMetrics> results = run_grid(args, specs, true);
  const std::size_t stride = schedulers.size();

  std::vector<std::string> header{"scheduler"};
  for (const FaultLevel& level : levels) header.emplace_back(level.name);
  Table energy("PE: average energy (mJ per user-slot) vs fault intensity", header);
  Table rebuffer("PC: average rebuffering (ms per user-slot) vs fault intensity",
                 header);
  Table completion("Session completion rate vs fault intensity", header);
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t s = 0; s < stride; ++s) {
    std::vector<double> pe_row;
    std::vector<double> pc_row;
    std::vector<double> done_row;
    for (std::size_t level = 0; level < levels.size(); ++level) {
      const RunMetrics& m = results[level * stride + s];
      pe_row.push_back(m.avg_energy_per_user_slot_mj());
      pc_row.push_back(1000.0 * m.avg_rebuffer_per_user_slot_s());
      done_row.push_back(m.completion_rate());
      csv_rows.push_back({levels[level].name, schedulers[s],
                          format_double(m.avg_energy_per_user_slot_mj(), 4),
                          format_double(1000.0 * m.avg_rebuffer_per_user_slot_s(), 4),
                          format_double(m.mean_fairness(), 4),
                          format_double(m.completion_rate(), 4)});
    }
    energy.row(schedulers[s], pe_row, 1);
    rebuffer.row(schedulers[s], pc_row, 1);
    completion.row(schedulers[s], done_row, 3);
  }
  energy.print();
  std::printf("\n");
  rebuffer.print();
  std::printf("\n");
  completion.print();

  maybe_write_csv(args.csv_dir, "fault_sweep.csv",
                  {"level", "scheduler", "energy_mj", "rebuffer_ms", "fairness",
                   "completion"},
                  csv_rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main("bench_fault_sweep", argc, argv, run);
}
