// Traced per-layer run of one workload:
//
//   jstream_perfbench_trace --workload <name> --seed <n> --seconds <s> [--spans <file>]
//
// After the validation pass it repeats cycles of three rounds until `seconds`
// have passed (at least kMinCycles): an untraced round with telemetry on, an
// untraced round with telemetry::set_enabled(false), and a traced round. All
// three must digest-equal the validation pass. It prints one JSON result line
// with the per-layer metrics. Each traced round's spans are reduced when the
// round ends; the first traced round's spans stay in memory and --spans
// writes them as CSV when the run ends (layer,slot,parent,start_ns,end_ns;
// parent indexes the same log, and logs follow one another).
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "cli.hpp"
#include "stats.hpp"
#include "telemetry/registry.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kMinCycles = 2;

/// Host seconds per simulated user-slot of a round's timed section.
double per_user_slot_s(const Round& round) { return round.timed_s / round.user_slots; }

/// An untraced round; the sweep reuses the prepared grid and runs the
/// campaign only.
Round untraced_round(Workload workload, std::uint64_t seed, const SweepSetup* sweep) {
  if (sweep == nullptr) return run_round(workload, seed, 0);
  Round round;
  const double start = now_s();
  const std::vector<jstream::RunMetrics> results = run_sweep_campaign(*sweep);
  round.timed_s = now_s() - start;
  for (const jstream::RunMetrics& run : results) {
    round.user_slots += static_cast<double>(run.slots_run) * static_cast<double>(kSweepUsers);
    round.digests.push_back(digest(run));
  }
  round.operations = static_cast<std::int64_t>(results.size());
  return round;
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  out << "layer,slot,parent,start_ns,end_ns\n";
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      out << layer_name(span.layer) << ',' << span.slot << ',' << span.parent << ','
          << span.start_ns << ',' << span.end_ns << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

Result run(const Args& args) {
  const Workload workload = args.workload;
  Result result;
  std::vector<std::uint64_t> expected;
  try {
    expected = run_validation_pass(workload, args.seed);
  } catch (const std::exception& e) {
    result.fail(std::string("validation pass: ") + e.what());
  }

  // The sweep traces one seed's 28 cells; its traces are generated once here.
  std::unique_ptr<SweepSetup> sweep;
  if (workload == Workload::kFaultSweep) {
    sweep = std::make_unique<SweepSetup>(prepare_sweep(sweep_first_seed(args.seed, 0), 1));
  }

  auto check = [&](const Round& round, const std::string& what) {
    result.attempted += round.operations;
    const bool ok = round.shape_errors.empty() && matches_prefix(round.digests, expected);
    for (const std::string& e : round.shape_errors) result.fail(what + ": " + e);
    if (!ok && round.shape_errors.empty()) result.fail(what + ": digest differs from the validation pass");
    if (!ok) result.failed += round.operations;
  };

  LayerTotals totals;
  LayerCounts counts;
  std::vector<double> telemetry_ratio;  // telemetry on / off, host time per user-slot
  std::vector<double> trace_ratio;      // traced / untraced
  std::vector<double> pool_idle_s;
  std::uint64_t trace_hits = 0;
  std::vector<SpanLog> first_logs;  // written out when the run ends
  const double deadline = now_s() + args.seconds;
  for (int c = 0; c < kMinCycles || now_s() < deadline; ++c) {
    const std::string cycle = "cycle " + std::to_string(c);
    try {
      const Round on = untraced_round(workload, args.seed, sweep.get());
      jstream::telemetry::set_enabled(false);
      Round off;
      try {
        off = untraced_round(workload, args.seed, sweep.get());
      } catch (...) {
        jstream::telemetry::set_enabled(true);
        throw;
      }
      jstream::telemetry::set_enabled(true);
      TracedRound traced = sweep != nullptr ? run_traced_sweep(*sweep)
                                            : run_traced_round(workload, args.seed);
      check(on, cycle + " telemetry on");
      check(off, cycle + " telemetry off");
      check(traced.round, cycle + " traced");

      telemetry_ratio.push_back(per_user_slot_s(on) / per_user_slot_s(off));
      trace_ratio.push_back(per_user_slot_s(traced.round) / per_user_slot_s(on));
      for (const SpanLog& log : traced.logs) totals.add(log);
      counts.dp_solves += traced.counts.dp_solves;
      counts.separable_hits += traced.counts.separable_hits;
      counts.memo_hits += traced.counts.memo_hits;
      counts.resumed_rows += traced.counts.resumed_rows;
      counts.binds += traced.counts.binds;
      counts.releases += traced.counts.releases;
      counts.tracer_events += traced.counts.tracer_events;
      pool_idle_s.push_back(traced.pool_idle_s);
      if (first_logs.empty()) {
        trace_hits = traced.trace_hits;
        first_logs = std::move(traced.logs);
      }
    } catch (const std::exception& e) {
      result.fail(cycle + ": " + e.what());
      result.attempted += 3 * expected_operations(workload);
      result.failed += 3 * expected_operations(workload);
    }
  }
  if (!args.spans_path.empty()) write_spans(args.spans_path, first_logs);
  if (expected.empty()) result.failed = result.attempted;
  if (totals.slots() == 0) {
    result.fail("no traced slot");
    return result;
  }
  if (!totals.slot_time_accounted()) {
    result.fail("layer self-times do not add up to the traced slot time");
  }

  const double slots = static_cast<double>(totals.slots());
  auto per_slot_us = [&](Layer layer) {
    return static_cast<double>(totals.self_ns[static_cast<std::size_t>(layer)]) / slots / 1e3;
  };
  auto per_slot = [&](std::int64_t count) { return static_cast<double>(count) / slots; };
  auto& m = result.metrics;
  m["core.allocate_us"] = {per_slot_us(Layer::kCoreAllocate), "us"};
  m["core.ema.dp_solves"] = {per_slot(counts.dp_solves), "1/slot"};
  m["core.ema.separable_hits"] = {per_slot(counts.separable_hits), "1/slot"};
  m["core.ema.memo_hits"] = {per_slot(counts.memo_hits), "1/slot"};
  m["core.ema.resumed_rows"] = {per_slot(counts.resumed_rows), "1/slot"};
  m["baselines.allocate_us"] = {per_slot_us(Layer::kBaselinesAllocate), "us"};
  m["gateway.collect_us"] = {per_slot_us(Layer::kGatewayCollect), "us"};
  m["gateway.apply_us"] = {per_slot_us(Layer::kGatewayApply), "us"};
  m["media.buffer_us"] = {per_slot_us(Layer::kMediaBuffer), "us"};
  m["sim.fault_us"] = {per_slot_us(Layer::kSimFault), "us"};
  m["sim.metrics_us"] = {per_slot_us(Layer::kSimMetrics), "us"};
  double generate_s = 0.0;
  if (sweep != nullptr) {
    for (const double s : sweep->generate_s) generate_s += s;
  }
  m["sim.trace_generate_s"] = {generate_s, "s"};
  m["sim.trace_generations"] = {sweep != nullptr ? static_cast<double>(sweep->generations) : 0.0,
                                "count"};
  m["sim.trace_hits"] = {static_cast<double>(trace_hits), "count"};
  m["sim.pool_idle_s"] = {median(pool_idle_s), "s"};
  m["session.boundary_us"] = {per_slot_us(Layer::kSessionBoundary), "us"};
  m["session.binds"] = {per_slot(counts.binds), "1/slot"};
  m["session.releases"] = {per_slot(counts.releases), "1/slot"};
  m["telemetry.bookkeeping_us"] = {per_slot_us(Layer::kTelemetry), "us"};
  m["telemetry.overhead_pct"] = {100.0 * (median(telemetry_ratio) - 1.0), "%"};
  m["telemetry.tracer_events"] = {per_slot(counts.tracer_events), "1/slot"};
  m["trace.overhead_pct"] = {100.0 * (median(trace_ratio) - 1.0), "%"};
  m["trace.unattributed_us"] = {per_slot_us(Layer::kSlot), "us"};
  m["trace.slot_us"] = {static_cast<double>(totals.slot_ns) / slots / 1e3, "us"};
  result.details["cycles"] = std::to_string(telemetry_ratio.size());
  result.details["traced_slots"] = std::to_string(totals.slots());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Result result = run(args);
    print_result(result, args.workload_name, args.seed,
                 "on; off in the telemetry-off companion rounds");
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jstream_perfbench_trace: %s\n", e.what());
    return 2;
  }
}
