// Theorem 1: the Lyapunov drift-plus-penalty bounds
//
//   PE_inf <= E* + B/V          PC_inf <= (B + V*E*) / eps
//
// Sweeps V and reports measured PE / PC alongside the bound structure:
// PE should decrease toward a floor (E*) roughly like 1/V while PC grows
// roughly linearly in V. B is computed from the scenario (Eq. 18).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/lyapunov.hpp"
#include "common/units.hpp"

using namespace jstream;
using namespace jstream::bench;

namespace {

int run(int argc, const char* const* argv) {
  Cli cli = make_cli("bench_theorem1_bounds",
                     "Theorem 1: PE/PC vs Lyapunov weight V", 10000, 30);
  const CommonArgs args = parse_common(cli, argc, argv);

  ScenarioConfig scenario = paper_scenario(args.users, args.seed);
  scenario.max_slots = args.slots;

  // B = 1/2 sum (tau^2 + t_max^2): t_max_i is the largest playback time one
  // slot's shard can carry, bounded by the best-case link rate.
  const double v_max_kbps =
      scenario.link.throughput->throughput_kbps(scenario.signal.max_dbm);
  std::vector<double> t_max;
  for (const UserEndpoint& endpoint : build_endpoints(scenario)) {
    t_max.push_back(scenario.slot.tau_s * v_max_kbps /
                    endpoint.session.bitrate_kbps(0));
  }
  const double b_constant = lyapunov_drift_bound(scenario.slot.tau_s, t_max);
  std::printf("Lyapunov constant B = %.1f (tau = %.1f s, %zu users)\n\n", b_constant,
              scenario.slot.tau_s, scenario.users);

  const std::vector<double> v_values{0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5};
  std::vector<ExperimentSpec> specs;
  for (double v : v_values) {
    SchedulerOptions options;
    options.ema.v_weight = v;
    specs.push_back({"ema", "ema", scenario, options});
  }
  const std::vector<RunMetrics> results = run_grid(args, specs);

  Table table("Theorem 1 sweep: PE falls ~1/V toward E*, PC grows ~V",
              {"V", "PE (mJ/user-slot)", "PC (ms/user-slot)", "B/V (mJ)"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t i = 0; i < v_values.size(); ++i) {
    const RunMetrics& m = results[i];
    table.row(format_double(v_values[i], 3),
              {m.avg_energy_per_user_slot_mj(),
               1000.0 * m.avg_rebuffer_per_user_slot_s(),
               b_constant / v_values[i] / as_double(scenario.users)},
              2);
    csv_rows.push_back({format_double(v_values[i], 5),
                        format_double(m.avg_energy_per_user_slot_mj(), 4),
                        format_double(1000.0 * m.avg_rebuffer_per_user_slot_s(), 4)});
  }
  table.print();

  const bool pe_monotone = results.front().avg_energy_per_user_slot_mj() >
                           results.back().avg_energy_per_user_slot_mj();
  const bool pc_monotone = results.front().avg_rebuffer_per_user_slot_s() <
                           results.back().avg_rebuffer_per_user_slot_s();
  std::printf("\nPE decreasing across the sweep: %s; PC increasing: %s\n",
              pe_monotone ? "yes" : "NO", pc_monotone ? "yes" : "NO");

  maybe_write_csv(args.csv_dir, "theorem1_bounds.csv", {"v", "pe_mj", "pc_ms"},
                  csv_rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main("bench_theorem1_bounds", argc, argv, run);
}
