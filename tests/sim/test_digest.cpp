// Field sensitivity of the result digests: metrics_digest and service_digest
// must cover every field of the results they hash. Each table row perturbs
// one field of a sample result; the digest of the perturbed copy must differ
// from the sample's. A field left out of the canonical encoding shows up here
// as a row whose perturbation the digest does not see.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "session/service.hpp"
#include "sim/metrics.hpp"

namespace jstream {
namespace {

RunMetrics sample_run() {
  RunMetrics run;
  run.slots_run = 3;
  run.per_user = {UserTotals{120.5, 30.25, 1.5, 4000.0, 3, 2, true},
                  UserTotals{80.0, 45.5, 0.0, 2500.0, 3, 1, false}};
  run.slot_fairness = {1.0, 0.75, 0.5};
  run.slot_energy_mj = {90.0, 100.0, 86.25};
  run.rebuffer_samples_s = {0.0, 1.0, 0.5};
  return run;
}

ServiceResult sample_service() {
  ServiceResult result;
  result.run = sample_run();
  ServiceMetrics& s = result.service;
  s.slots_run = 100;
  s.warmup_slots = 10;
  s.capacity_slots = 8;
  s.offered = 30;
  s.admitted = 25;
  s.rejected = 3;
  s.blocked = 2;
  s.completed = 18;
  s.aborted = 4;
  s.in_flight_at_end = 3;
  s.measured_slots = 90;
  s.concurrency_sum = 450.0;
  s.peak_concurrency = 7;
  s.rebuffer_sum_s = 12.5;
  s.active_user_slots = 450;
  s.energy_sum_mj = 30000.0;
  s.sessions_measured = 15;
  s.session_rebuffer_sum_s = 10.0;
  s.session_energy_sum_mj = 25000.0;
  s.session_delivered_sum_kb = 60000.0;
  s.session_length_slots_sum = 600;
  s.records = {SessionRecord{2, 5, 12, 40, 4200.0, 0.5, 1800.0, true},
               SessionRecord{6, 9, 20, 33, 900.0, 2.0, 700.0, false}};
  return result;
}

template <typename Fields>
struct Perturbation {
  const char* field;
  std::function<void(Fields&)> apply;
};

const std::vector<Perturbation<RunMetrics>>& run_rows() {
  static const std::vector<Perturbation<RunMetrics>> rows = {
      {"slots_run", [](RunMetrics& m) { m.slots_run += 1; }},
      {"per_user.trans_mj", [](RunMetrics& m) { m.per_user[1].trans_mj += 0.5; }},
      {"per_user.tail_mj", [](RunMetrics& m) { m.per_user[1].tail_mj += 0.5; }},
      {"per_user.rebuffer_s", [](RunMetrics& m) { m.per_user[1].rebuffer_s += 0.5; }},
      {"per_user.delivered_kb", [](RunMetrics& m) { m.per_user[1].delivered_kb += 0.5; }},
      {"per_user.session_slots", [](RunMetrics& m) { m.per_user[1].session_slots += 1; }},
      {"per_user.tx_slots", [](RunMetrics& m) { m.per_user[1].tx_slots += 1; }},
      {"per_user.playback_finished",
       [](RunMetrics& m) { m.per_user[1].playback_finished = true; }},
      {"slot_fairness", [](RunMetrics& m) { m.slot_fairness[2] = 0.25; }},
      {"slot_energy_mj", [](RunMetrics& m) { m.slot_energy_mj[2] += 1.0; }},
      {"rebuffer_samples_s", [](RunMetrics& m) { m.rebuffer_samples_s[2] += 1.0; }},
  };
  return rows;
}

const std::vector<Perturbation<ServiceMetrics>>& service_rows() {
  static const std::vector<Perturbation<ServiceMetrics>> rows = {
      {"slots_run", [](ServiceMetrics& s) { s.slots_run += 1; }},
      {"warmup_slots", [](ServiceMetrics& s) { s.warmup_slots += 1; }},
      {"capacity_slots", [](ServiceMetrics& s) { s.capacity_slots += 1; }},
      {"offered", [](ServiceMetrics& s) { s.offered += 1; }},
      {"admitted", [](ServiceMetrics& s) { s.admitted += 1; }},
      {"rejected", [](ServiceMetrics& s) { s.rejected += 1; }},
      {"blocked", [](ServiceMetrics& s) { s.blocked += 1; }},
      {"completed", [](ServiceMetrics& s) { s.completed += 1; }},
      {"aborted", [](ServiceMetrics& s) { s.aborted += 1; }},
      {"in_flight_at_end", [](ServiceMetrics& s) { s.in_flight_at_end += 1; }},
      {"measured_slots", [](ServiceMetrics& s) { s.measured_slots += 1; }},
      {"concurrency_sum", [](ServiceMetrics& s) { s.concurrency_sum += 0.5; }},
      {"peak_concurrency", [](ServiceMetrics& s) { s.peak_concurrency += 1; }},
      {"rebuffer_sum_s", [](ServiceMetrics& s) { s.rebuffer_sum_s += 0.5; }},
      {"active_user_slots", [](ServiceMetrics& s) { s.active_user_slots += 1; }},
      {"energy_sum_mj", [](ServiceMetrics& s) { s.energy_sum_mj += 0.5; }},
      {"sessions_measured", [](ServiceMetrics& s) { s.sessions_measured += 1; }},
      {"session_rebuffer_sum_s", [](ServiceMetrics& s) { s.session_rebuffer_sum_s += 0.5; }},
      {"session_energy_sum_mj", [](ServiceMetrics& s) { s.session_energy_sum_mj += 0.5; }},
      {"session_delivered_sum_kb",
       [](ServiceMetrics& s) { s.session_delivered_sum_kb += 0.5; }},
      {"session_length_slots_sum",
       [](ServiceMetrics& s) { s.session_length_slots_sum += 1; }},
      {"records.user_slot", [](ServiceMetrics& s) { s.records[1].user_slot += 1; }},
      {"records.arrival_index", [](ServiceMetrics& s) { s.records[1].arrival_index += 1; }},
      {"records.start_slot", [](ServiceMetrics& s) { s.records[1].start_slot += 1; }},
      {"records.end_slot", [](ServiceMetrics& s) { s.records[1].end_slot += 1; }},
      {"records.delivered_kb", [](ServiceMetrics& s) { s.records[1].delivered_kb += 0.5; }},
      {"records.rebuffer_s", [](ServiceMetrics& s) { s.records[1].rebuffer_s += 0.5; }},
      {"records.energy_mj", [](ServiceMetrics& s) { s.records[1].energy_mj += 0.5; }},
      {"records.completed", [](ServiceMetrics& s) { s.records[1].completed = true; }},
  };
  return rows;
}

TEST(DigestFieldSensitivity, EveryRunMetricsFieldMovesTheDigest) {
  const RunMetrics sample = sample_run();
  const std::uint64_t digest = metrics_digest(sample);
  EXPECT_EQ(metrics_digest(sample_run()), digest);
  for (const auto& row : run_rows()) {
    RunMetrics perturbed = sample;
    row.apply(perturbed);
    EXPECT_NE(metrics_digest(perturbed), digest) << row.field;
  }
}

TEST(DigestFieldSensitivity, EveryServiceResultFieldMovesTheDigest) {
  const ServiceResult sample = sample_service();
  const std::uint64_t digest = service_digest(sample);
  EXPECT_EQ(service_digest(sample_service()), digest);
  for (const auto& row : run_rows()) {
    ServiceResult perturbed = sample;
    row.apply(perturbed.run);
    EXPECT_NE(service_digest(perturbed), digest) << "run." << row.field;
  }
  for (const auto& row : service_rows()) {
    ServiceResult perturbed = sample;
    row.apply(perturbed.service);
    EXPECT_NE(service_digest(perturbed), digest) << "service." << row.field;
  }
}

}  // namespace
}  // namespace jstream
