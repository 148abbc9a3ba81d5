#include "sim/campaign.hpp"

#include <limits>
#include <map>
#include <mutex>
#include <tuple>

#include "sim/fault.hpp"
#include "telemetry/registry.hpp"
#include "common/units.hpp"

namespace jstream {

namespace {

/// One fault schedule per distinct (seed, users, horizon, fault fingerprint)
/// among a grid's faulted specs: the schedule is a pure function of exactly
/// these, so every cell of a key runs against the same draw. The first cell
/// that needs a key draws it under the key's once-flag, so draws for
/// different keys overlap on the pool; the schedules die with this object.
class SharedFaultSchedules {
 public:
  explicit SharedFaultSchedules(std::span<const ExperimentSpec> specs)
      : specs_(specs), key_of_(specs.size(), kUnfaulted) {
    std::map<std::tuple<std::uint64_t, std::size_t, std::int64_t, std::uint64_t>,
             std::size_t>
        keys;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ScenarioConfig& scenario = specs[i].scenario;
      if (!scenario.faults.any()) continue;
      key_of_[i] = keys.try_emplace({scenario.seed, scenario.users, scenario.max_slots,
                                     fault_fingerprint(scenario.faults)},
                                    keys.size())
                       .first->second;
    }
    keys_ = std::make_unique<Key[]>(keys.size());
  }

  /// Spec `i`'s schedule, drawn on first use; null for an unfaulted spec.
  [[nodiscard]] std::shared_ptr<const FaultSchedule> get(std::size_t i) {
    if (key_of_[i] == kUnfaulted) return nullptr;
    Key& key = keys_[key_of_[i]];
    std::call_once(key.drawn, [&] {
      // Validate first, so a malformed scenario fails with the name the
      // Simulator would give it, not a fault-schedule message.
      validate(specs_[i].scenario);
      key.schedule = std::make_shared<const FaultSchedule>(
          make_fault_schedule(specs_[i].scenario));
    });
    return key.schedule;
  }

 private:
  static constexpr std::size_t kUnfaulted = std::numeric_limits<std::size_t>::max();

  struct Key {
    std::once_flag drawn;
    std::shared_ptr<const FaultSchedule> schedule;
  };

  std::span<const ExperimentSpec> specs_;
  std::vector<std::size_t> key_of_;
  std::unique_ptr<Key[]> keys_;
};

}  // namespace

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

std::vector<RunMetrics> run_campaign(std::span<const ExperimentSpec> specs,
                                     const CampaignOptions& options) {
  SharedFaultSchedules schedules(specs);
  return run_campaign_cells(
      specs.size(), options,
      [&](std::size_t i) { return CampaignCell{&specs[i].scenario, 0}; },
      [&](std::size_t i, std::shared_ptr<const SignalTraceSet> trace) {
        return run_experiment(specs[i], options.keep_series, std::move(trace),
                              schedules.get(i));
      });
}

}  // namespace jstream
