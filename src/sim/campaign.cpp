#include "sim/campaign.hpp"

#include <unordered_set>

#include "telemetry/registry.hpp"
#include "common/units.hpp"

namespace jstream {

std::vector<ExperimentSpec> make_campaign_grid(const ScenarioConfig& base,
                                               std::span<const CampaignSeries> series,
                                               std::size_t replications) {
  std::vector<ExperimentSpec> specs;
  specs.reserve(series.size() * replications);
  for (std::size_t rep = 0; rep < replications; ++rep) {
    for (const CampaignSeries& s : series) {
      ExperimentSpec spec;
      spec.label = s.label;
      spec.scheduler = s.scheduler;
      spec.scenario = base;
      spec.scenario.seed = base.seed + rep;
      spec.options = s.options;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

void note_campaign_cells(std::size_t cells) {
  telemetry::global_registry().counter("campaign.runs").add();
  telemetry::global_registry()
      .counter("campaign.cells")
      .add(checked_index(cells));
}

std::vector<std::size_t> lead_cells(std::span<const CampaignCell> cells,
                                    std::size_t budget_bytes) {
  std::vector<std::size_t> leads;
  std::unordered_set<TraceKey, TraceKeyHash> seen;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScenarioConfig& scenario = *cells[i].scenario;
    if (!seen.insert(make_trace_key(scenario, cells[i].session_fingerprint)).second) {
      continue;
    }
    bytes += SignalTraceSet::estimate_bytes(scenario.users, scenario.max_slots);
    if (bytes > budget_bytes) break;
    leads.push_back(i);
  }
  return leads;
}

std::vector<RunMetrics> run_campaign(std::span<const ExperimentSpec> specs,
                                     const CampaignOptions& options) {
  return run_campaign_cells(
      specs.size(), options,
      [&](std::size_t i) { return CampaignCell{&specs[i].scenario, 0}; },
      [&](std::size_t i, std::shared_ptr<const SignalTraceSet> trace) {
        return run_experiment(specs[i], options.keep_series, std::move(trace));
      });
}

}  // namespace jstream
