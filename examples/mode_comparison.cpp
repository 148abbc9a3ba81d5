// Runs every scheduler the library ships over the same scenario — the RTM and
// EM modes of the framework plus all five baselines — and prints one
// comparison table. This is the "which mode do I want?" view an operator
// would consult (Section VI-C of the paper).
#include <cstdio>

#include "baselines/factory.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"

using namespace jstream;

int main(int argc, char** argv) {
  try {
    Cli cli("mode_comparison", "all schedulers side by side on one scenario");
    cli.add_flag("users", "40", "number of users");
    cli.add_flag("seed", "42", "scenario seed");
    cli.add_flag("threads", "0", "parallel runs (0 = hardware concurrency)");
    cli.parse(argc, argv);
    if (cli.help_requested()) {
      std::fputs(cli.help().c_str(), stdout);
      return 0;
    }

    ScenarioConfig scenario = paper_scenario(
        static_cast<std::size_t>(cli.get_int("users")),
        static_cast<std::uint64_t>(cli.get_int("seed")));
    const DefaultReference reference = run_default_reference(scenario);

    std::vector<ExperimentSpec> specs;
    for (const std::string& name : scheduler_names()) {
      ExperimentSpec spec;
      spec.label = name;
      spec.scheduler = name;
      spec.scenario = scenario;
      if (name == "rtma") spec.options = rtma_options_for_alpha(1.0, reference);
      specs.push_back(spec);
    }

    CampaignOptions options;
    options.threads = static_cast<std::size_t>(cli.get_int("threads"));
    const std::vector<RunMetrics> results = run_campaign(specs, options);

    Table table("scheduler comparison (" + std::to_string(scenario.users) + " users)",
                {"scheduler", "PE (mJ/us)", "tail (mJ/us)", "PC (ms/us)", "fairness",
                 "total E (J)", "total rebuf (s)"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const RunMetrics& m = results[i];
      table.row(specs[i].label,
                {m.avg_energy_per_user_slot_mj(), m.avg_tail_per_user_slot_mj(),
                 1000.0 * m.avg_rebuffer_per_user_slot_s(), m.mean_fairness(),
                 m.total_energy_mj() / 1000.0, m.total_rebuffer_s()},
                1);
    }
    table.print();
    std::printf("\nRTM mode (rtma) minimizes rebuffering under Phi = E_default;\n"
                "EM mode (ema) minimizes energy; tune V or use "
                "calibrate_v_for_rebuffer for a rebuffering bound.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mode_comparison: error: %s\n", e.what());
    return 1;
  }
}
