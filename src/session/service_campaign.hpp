// Campaign engine for service-mode runs: executes a batch of
// ServiceExperimentSpecs on the thread pool via run_campaign_cells, sharing
// the channel substrate across every spec that uses the same cell AND the
// same arrival stream. The service fingerprint joins the TraceKey: two specs
// whose arrivals differ never alias a cache entry, while a zero-arrival
// service spec shares its entry with plain batch campaigns over the same
// scenario (they are bit-identical runs).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "session/service.hpp"
#include "sim/campaign.hpp"

namespace jstream {

/// One service experiment: a service config run under a named scheduler.
struct ServiceExperimentSpec {
  std::string label;      ///< series name in reports
  std::string scheduler;  ///< factory name
  ServiceConfig config;
  SchedulerOptions options;
};

/// Runs one spec end to end (convenience mirror of run_experiment).
[[nodiscard]] ServiceResult run_service_experiment(
    const ServiceExperimentSpec& spec, bool keep_series = false,
    std::shared_ptr<const SignalTraceSet> trace = nullptr);

/// Runs every spec on the pool (order-preserving results) with the channel
/// substrate shared through the trace cache, keyed by scenario identity plus
/// each spec's service fingerprint.
[[nodiscard]] std::vector<ServiceResult> run_service_campaign(
    std::span<const ServiceExperimentSpec> specs, const CampaignOptions& options = {});

}  // namespace jstream
