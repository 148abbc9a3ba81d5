// Online service mode: steady-state behaviour, admission control at overload,
// sustained-concurrency scale, and the zero-arrival batch-equivalence check.
//
// Four parts:
//   1. Steady-state campaign: every factory scheduler under a low and a high
//      Poisson load through run_service_campaign (shared channel substrate,
//      arrival fingerprint joined into the trace key). Tabulates concurrency,
//      session flow, and the steady-state PC/PE analogues.
//   2. Admission at overload: accept-all versus the capacity/backlog threshold
//      policy on an overloaded cell. Exits nonzero unless the threshold keeps
//      the measured-window stall rate strictly below accept-all's.
//   3. Scale: one trace-less service run filling >=100k concurrent sessions
//      (default scheduler); reports per-slot wall time and VmRSS after the
//      fill and at the horizon. Report-only since PR9: the enforcement
//      (ns/user-slot ceiling, end RSS <= 1.5x post-fill, the sustained
//      >=100k concurrency floor) moved into bench_perf_gate, where the
//      numbers are pinned in BENCH_PR18.json.
//   4. Zero-arrival equivalence: a service run with arrivals off must
//      reproduce the batch simulate() result bit for bit (benign and faulted
//      cells, default and ema schedulers). Exits nonzero on any mismatch.
//
// With --validate every executed slot of parts 1, 2, and 4 passes the
// paper-invariant checker across session rebinds (part 3 stays validator-off
// at 100k+ users by the same REPRO budget rule the other benches use: the
// checker is O(users) per slot and the scale part measures the slot path).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "session/service_campaign.hpp"
#include "common/units.hpp"

using namespace jstream;
using namespace jstream::bench;

namespace {

/// Resident set size in KB from /proc/self/status (0 when unavailable).
long read_vmrss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(status);
  return kb;
}

ScenarioConfig service_cell(std::size_t users, std::int64_t slots,
                            std::uint64_t seed) {
  ScenarioConfig cell = paper_scenario(users, seed);
  cell.max_slots = slots;
  cell.video_min_mb = 2.0;
  cell.video_max_mb = 4.0;
  return cell;
}

bool same_run(const RunMetrics& a, const RunMetrics& b) {
  if (a.slots_run != b.slots_run || a.per_user.size() != b.per_user.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_user.size(); ++i) {
    const UserTotals& x = a.per_user[i];
    const UserTotals& y = b.per_user[i];
    if (x.trans_mj != y.trans_mj || x.tail_mj != y.tail_mj ||
        x.rebuffer_s != y.rebuffer_s || x.delivered_kb != y.delivered_kb ||
        x.session_slots != y.session_slots || x.tx_slots != y.tx_slots ||
        x.playback_finished != y.playback_finished) {
      return false;
    }
  }
  return true;
}

void part1_steady_state(const CommonArgs& args, bool quick,
                        std::vector<std::vector<std::string>>& csv_rows) {
  const std::vector<std::string> schedulers = scheduler_names();
  const std::int64_t horizon = quick ? args.slots : 600;
  ScenarioConfig cell = service_cell(24, horizon, args.seed);
  const SchedulerOptions rtma_options = rtma_options_for_alpha(
      1.0, run_default_reference(cell, &global_trace_cache()));

  struct Load {
    const char* name;
    double rate;
  };
  const Load loads[] = {{"low", 0.12}, {"high", 0.4}};

  std::vector<ServiceExperimentSpec> specs;
  for (const Load& load : loads) {
    for (const std::string& name : schedulers) {
      ServiceExperimentSpec spec;
      spec.label = std::string(load.name) + "/" + name;
      spec.scheduler = name;
      spec.config.cell = cell;
      spec.config.arrivals.kind = ArrivalKind::kPoisson;
      spec.config.arrivals.rate_per_slot = load.rate;
      spec.config.warmup_slots = horizon / 5;
      if (name == "rtma") spec.options = rtma_options;
      specs.push_back(std::move(spec));
    }
  }
  CampaignOptions options;
  options.threads = args.threads;
  options.cache = &global_trace_cache();
  const std::vector<ServiceResult> results = run_service_campaign(specs, options);

  Table table("Steady state: Poisson arrivals, 24 population slots, " +
                  std::to_string(horizon) + " slots",
              {"load/scheduler", "offered", "admitted", "completed", "aborted",
               "mean conc", "peak", "PC (ms/us)", "PE (mJ/us)"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ServiceMetrics& m = results[i].service;
    table.row({specs[i].label, std::to_string(m.offered),
               std::to_string(m.admitted), std::to_string(m.completed),
               std::to_string(m.aborted), format_double(m.mean_concurrency(), 2),
               std::to_string(m.peak_concurrency),
               format_double(1000.0 * m.mean_rebuffer_per_user_slot_s(), 2),
               format_double(m.mean_energy_per_user_slot_mj(), 2)});
    csv_rows.push_back(
        {specs[i].label, std::to_string(m.offered), std::to_string(m.admitted),
         std::to_string(m.rejected), std::to_string(m.blocked),
         std::to_string(m.completed), std::to_string(m.aborted),
         format_double(m.mean_concurrency(), 4),
         format_double(m.mean_rebuffer_per_user_slot_s(), 6),
         format_double(m.mean_energy_per_user_slot_mj(), 6)});
  }
  table.print();
  std::printf("\n");
}

int part2_admission_overload(const CommonArgs& args, bool quick) {
  const std::int64_t horizon = quick ? args.slots : 800;
  ScenarioConfig cell = service_cell(80, horizon, args.seed + 1);
  cell.capacity_kbps = 2000.0;  // ~4 sessions' worth of service rate

  ServiceConfig base;
  base.cell = cell;
  base.arrivals.kind = ArrivalKind::kPoisson;
  base.arrivals.rate_per_slot = 1.0;
  base.warmup_slots = quick ? horizon / 5 : 100;

  ServiceExperimentSpec accept{"overload/accept-all", "default", base, {}};
  ServiceExperimentSpec threshold{"overload/threshold", "default", base, {}};
  threshold.config.admission.kind = AdmissionKind::kThreshold;
  threshold.config.admission.threshold.capacity_headroom = 1.15;
  threshold.config.admission.threshold.max_mean_queue_s = 10.0;

  CampaignOptions options;
  options.threads = args.threads;
  options.cache = &global_trace_cache();
  const std::vector<ServiceExperimentSpec> specs{accept, threshold};
  const std::vector<ServiceResult> results = run_service_campaign(specs, options);

  Table table("Admission at overload: lambda = 1/slot on a 2 MB/s cell",
              {"policy", "offered", "admitted", "rejected", "completed",
               "mean conc", "PC (ms/us)"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ServiceMetrics& m = results[i].service;
    table.row({specs[i].label, std::to_string(m.offered),
               std::to_string(m.admitted), std::to_string(m.rejected),
               std::to_string(m.completed),
               format_double(m.mean_concurrency(), 2),
               format_double(1000.0 * m.mean_rebuffer_per_user_slot_s(), 2)});
  }
  table.print();

  const double accept_pc = results[0].service.mean_rebuffer_per_user_slot_s();
  const double threshold_pc = results[1].service.mean_rebuffer_per_user_slot_s();
  std::printf("[admission] accept-all PC %.4f s/user-slot, threshold PC %.4f\n\n",
              accept_pc, threshold_pc);
  if (threshold_pc >= accept_pc) {
    std::fprintf(stderr,
                 "FAIL: threshold admission did not reduce overload stalling "
                 "(%.6f >= %.6f s/user-slot)\n",
                 threshold_pc, accept_pc);
    return 1;
  }
  return 0;
}

void part3_scale(const CommonArgs& args, bool quick,
                 std::vector<std::vector<std::string>>& csv_rows) {
  const std::size_t population = quick ? 2000 : 110000;
  const std::int64_t horizon = quick ? args.slots : 300;
  const std::int64_t fill_slots = 40;  // population/(population/30) + margin

  ScenarioConfig cell = service_cell(population, horizon, args.seed + 2);
  cell.video_min_mb = 100.0;  // sessions outlive the horizon: pure steady load
  cell.video_max_mb = 200.0;

  ServiceConfig config;
  config.cell = cell;
  config.arrivals.kind = ArrivalKind::kPoisson;
  config.arrivals.rate_per_slot = as_double(population) / 30.0;
  config.warmup_slots = std::min<std::int64_t>(fill_slots + 20, horizon - 1);

  // Trace-less on purpose: a 110k x 300 substrate would dwarf the gateway
  // state this part exists to measure.
  ServiceSimulator simulator(config, make_scheduler("default"));
  long rss_fill_kb = 0;
  const auto start = std::chrono::steady_clock::now();
  while (simulator.step()) {
    if (simulator.slot() == fill_slots) rss_fill_kb = read_vmrss_kb();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::size_t live = simulator.active_sessions();
  const ServiceResult result = simulator.finish();
  const long rss_end_kb = read_vmrss_kb();
  if (rss_fill_kb == 0) rss_fill_kb = rss_end_kb;

  const double ns_per_slot =
      as_double(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      as_double(result.service.slots_run);
  const ServiceMetrics& m = result.service;
  std::printf(
      "[scale] %zu population slots, %lld slots: mean concurrency %.0f, peak "
      "%zu, %lld still streaming; %.0f ns/slot (%.1f ns/user-slot); RSS %.1f "
      "MB after fill, %.1f MB at end\n\n",
      population, static_cast<long long>(m.slots_run), m.mean_concurrency(),
      m.peak_concurrency, static_cast<long long>(m.in_flight_at_end), ns_per_slot,
      ns_per_slot / as_double(population),
      as_double(rss_fill_kb) / 1000.0,
      as_double(rss_end_kb) / 1000.0);
  csv_rows.push_back({"scale", std::to_string(population),
                      std::to_string(m.slots_run),
                      format_double(m.mean_concurrency(), 1),
                      std::to_string(m.peak_concurrency),
                      format_double(ns_per_slot, 0), std::to_string(rss_fill_kb),
                      std::to_string(rss_end_kb)});
  // The ceilings on these numbers (residency, ns/user-slot, concurrency
  // floor) are enforced by bench_perf_gate's service_scale_gate; this part
  // only reports them, so the session smoke stays cheap.
  (void)live;
}

int part4_zero_arrival_equivalence(const CommonArgs& args, bool quick) {
  ScenarioConfig benign = paper_scenario(8, args.seed);
  benign.max_slots = quick ? args.slots : 400;
  benign.video_min_mb = 2.0;
  benign.video_max_mb = 4.0;

  ScenarioConfig faulted = benign;
  faulted.faults.outage_rate_per_kslot = 5.0;
  faulted.faults.departure_fraction = 0.25;
  faulted.faults.capacity_rate_per_kslot = 2.0;
  faulted.faults.capacity_scale = 0.5;

  struct Case {
    const char* name;
    const ScenarioConfig* cell;
    const char* scheduler;
  };
  const Case cases[] = {{"benign/default", &benign, "default"},
                        {"benign/ema", &benign, "ema"},
                        {"faulted/default", &faulted, "default"},
                        {"faulted/ema", &faulted, "ema"}};
  int failures = 0;
  for (const Case& c : cases) {
    ServiceConfig config;
    config.cell = *c.cell;
    const ServiceResult service =
        simulate_service(config, make_scheduler(c.scheduler));
    const RunMetrics batch = simulate(*c.cell, make_scheduler(c.scheduler), false);
    const bool identical = same_run(service.run, batch);
    std::printf("[equivalence] %-16s %s\n", c.name,
                identical ? "bit-identical" : "MISMATCH");
    if (!identical) ++failures;
  }
  std::printf("\n");
  return failures == 0 ? 0 : 1;
}

int run(int argc, const char* const* argv) {
  Cli cli = make_cli("bench_service_steady",
                     "Online service mode: steady state, admission, scale",
                     /*default_slots=*/600, /*default_users=*/24);
  const CommonArgs args = parse_common(cli, argc, argv);
  const bool quick = args.slots <= 100;

  std::vector<std::vector<std::string>> steady_rows;
  std::vector<std::vector<std::string>> scale_rows;
  part1_steady_state(args, quick, steady_rows);
  int status = part2_admission_overload(args, quick);
  part3_scale(args, quick, scale_rows);
  const int equivalence_status = part4_zero_arrival_equivalence(args, quick);
  if (status == 0) status = equivalence_status;

  maybe_write_csv(args.csv_dir, "service_steady.csv",
                  {"label", "offered", "admitted", "rejected", "blocked",
                   "completed", "aborted", "mean_concurrency",
                   "rebuffer_per_user_slot_s", "energy_per_user_slot_mj"},
                  steady_rows);
  maybe_write_csv(args.csv_dir, "service_scale.csv",
                  {"part", "population", "slots", "mean_concurrency", "peak",
                   "ns_per_slot", "rss_fill_kb", "rss_end_kb"},
                  scale_rows);
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main("bench_service_steady", argc, argv, run);
}
