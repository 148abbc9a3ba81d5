#include "session/service_campaign.hpp"

#include "baselines/factory.hpp"

namespace jstream {

ServiceResult run_service_experiment(const ServiceExperimentSpec& spec,
                                     bool keep_series,
                                     std::shared_ptr<const SignalTraceSet> trace) {
  return simulate_service(spec.config, make_scheduler(spec.scheduler, spec.options),
                          keep_series, std::move(trace));
}

std::vector<ServiceResult> run_service_campaign(
    std::span<const ServiceExperimentSpec> specs, const CampaignOptions& options) {
  return run_campaign_cells(
      specs.size(), options,
      [&](std::size_t i) {
        return CampaignCell{&specs[i].config.cell,
                            service_fingerprint(specs[i].config)};
      },
      [&](std::size_t i, std::shared_ptr<const SignalTraceSet> trace) {
        return run_service_experiment(specs[i], options.keep_series,
                                      std::move(trace));
      });
}

}  // namespace jstream
