#include "sim/multicell.hpp"

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/campaign.hpp"

namespace jstream {

MultiCellConfig MultiCellConfig::uniform(const ScenarioConfig& base,
                                         std::size_t cell_count) {
  require(cell_count > 0, "deployment needs at least one cell");
  MultiCellConfig config;
  config.cells.reserve(cell_count);
  for (std::size_t cell = 0; cell < cell_count; ++cell) {
    ScenarioConfig scenario = base;
    scenario.seed = base.seed + cell;
    config.cells.push_back(std::move(scenario));
  }
  return config;
}

std::size_t MultiCellResult::total_users() const noexcept {
  std::size_t total = 0;
  for (const auto& cell : per_cell) total += cell.per_user.size();
  return total;
}

double MultiCellResult::total_energy_mj() const noexcept {
  double total = 0.0;
  for (const auto& cell : per_cell) total += cell.total_energy_mj();
  return total;
}

double MultiCellResult::total_rebuffer_s() const noexcept {
  double total = 0.0;
  for (const auto& cell : per_cell) total += cell.total_rebuffer_s();
  return total;
}

double MultiCellResult::avg_energy_per_user_slot_mj() const noexcept {
  const std::size_t users = total_users();
  if (users == 0) return 0.0;
  double weighted = 0.0;
  for (const auto& cell : per_cell) {
    weighted += cell.avg_energy_per_user_slot_mj() *
                as_double(cell.per_user.size());
  }
  return weighted / as_double(users);
}

double MultiCellResult::avg_rebuffer_per_user_slot_s() const noexcept {
  const std::size_t users = total_users();
  if (users == 0) return 0.0;
  double weighted = 0.0;
  for (const auto& cell : per_cell) {
    weighted += cell.avg_rebuffer_per_user_slot_s() *
                as_double(cell.per_user.size());
  }
  return weighted / as_double(users);
}

MultiCellResult simulate_multicell(const MultiCellConfig& config,
                                   const std::string& scheduler_name,
                                   const SchedulerOptions& options,
                                   std::size_t threads) {
  require(!config.cells.empty(), "deployment needs at least one cell");
  for (const auto& cell : config.cells) validate(cell);
  // One campaign cell per base station. Each cell builds its own scheduler,
  // so framework state cannot leak between base stations, and through the
  // scenario-aware factory, so predictive series follow each cell's seed.
  std::vector<ExperimentSpec> specs;
  specs.reserve(config.cells.size());
  for (const ScenarioConfig& cell : config.cells) {
    specs.push_back({scheduler_name, scheduler_name, cell, options});
  }
  CampaignOptions campaign;
  campaign.threads = threads;
  MultiCellResult result;
  result.per_cell = run_campaign(specs, campaign);
  return result;
}

}  // namespace jstream
