#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "baselines/factory.hpp"
#include "common/units.hpp"
#include "core/ema.hpp"
#include "net/base_station.hpp"
#include "session/admission.hpp"
#include "session/arrival.hpp"
#include "session/session_manager.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "stats.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/scoped_timer.hpp"

namespace perfbench {

using namespace jstream;

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSlot: return "slot";
    case Layer::kCell: return "cell";
    case Layer::kGatewayCollect: return "gateway.collect";
    case Layer::kGatewayApply: return "gateway.apply";
    case Layer::kMediaBuffer: return "media.buffer";
    case Layer::kCoreAllocate: return "core.allocate";
    case Layer::kBaselinesAllocate: return "baselines.allocate";
    case Layer::kSimFault: return "sim.fault";
    case Layer::kSimMetrics: return "sim.metrics";
    case Layer::kSessionBoundary: return "session.boundary";
    case Layer::kTelemetry: return "telemetry";
  }
  return "unknown";
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t index(Layer layer) { return static_cast<std::size_t>(layer); }

}  // namespace

std::int32_t SpanLog::open(Layer layer, std::int64_t slot, std::int32_t parent) {
  spans_.push_back(Span{now_ns(), 0, slot, parent, layer});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

void LayerTotals::add(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    self_ns[index(span.layer)] += duration - child_ns[i];
    ++this->spans[index(span.layer)];
    if (span.layer == Layer::kSlot) slot_ns += duration;
  }
}

bool LayerTotals::slot_time_accounted() const noexcept {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (i != index(Layer::kCell)) sum += self_ns[i];
  }
  return sum == slot_ns;
}

namespace {

/// Framework::run_slot's telemetry probes, resolved by the same names.
struct GatewayProbes {
  telemetry::Counter& slots;
  telemetry::Counter& eq1_link_clips;
  telemetry::Counter& eq2_capacity_clips;
  telemetry::Histogram& decision_latency_us;
  telemetry::SlotTracer& tracer;

  static GatewayProbes& instance() {
    auto& registry = telemetry::global_registry();
    static GatewayProbes probes{registry.counter("gateway.slots"),
                                registry.counter("constraint.eq1.link_cap_clips"),
                                registry.counter("constraint.eq2.capacity_clips"),
                                registry.histogram("scheduler.decision_latency_us"),
                                registry.tracer()};
    return probes;
  }
};

/// ServiceSimulator's admission probes, resolved by the same names.
struct SessionProbes {
  telemetry::Counter& offered;
  telemetry::Counter& accepted;
  telemetry::Counter& rejected;
  telemetry::Counter& blocked;

  static SessionProbes& instance() {
    auto& registry = telemetry::global_registry();
    static SessionProbes probes{registry.counter("admission.offered"),
                                registry.counter("admission.accepted"),
                                registry.counter("admission.rejected"),
                                registry.counter("admission.blocked")};
    return probes;
  }
};

bool is_core_scheduler(const std::string& name) {
  return name.rfind("ema", 0) == 0 || name.rfind("rtma", 0) == 0;
}

/// Framework::run_slot rebuilt from the gateway components' public
/// functions, in its order, with a span around each call. The validator hooks
/// are left out: timed and traced passes run with validation off.
class TracedGateway {
 public:
  TracedGateway(const ScenarioConfig& config, std::unique_ptr<Scheduler> scheduler)
      : collector_(config.slot, config.link, config.radio),
        scheduler_(std::move(scheduler)),
        allocate_layer_(is_core_scheduler(scheduler_->name()) ? Layer::kCoreAllocate
                                                              : Layer::kBaselinesAllocate),
        receiver_(config.users, config.backhaul_kbps > 0.0
                                    ? config.backhaul_kbps
                                    : std::numeric_limits<double>::infinity()) {
    scheduler_->reset(config.users);
  }

  void attach_fault_hook(SlotFaultHook* hook) noexcept { fault_ = hook; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] const SlotContext& context() const noexcept { return ctx_; }

  const SlotOutcome& run_slot(std::int64_t slot, std::span<UserEndpoint> endpoints,
                              const BaseStation& bs, SpanLog* log, std::int32_t parent) {
    auto& probes = GatewayProbes::instance();
    probes.slots.add();
    {
      const SpanScope span(log, Layer::kGatewayApply, slot, parent);
      receiver_.begin_slot(collector_.params().tau_s);
    }
    {
      const SpanScope span(log, Layer::kMediaBuffer, slot, parent);
      for (UserEndpoint& endpoint : endpoints) endpoint.buffer.begin_slot();
    }
    {
      const SpanScope span(log, Layer::kGatewayCollect, slot, parent);
      collector_.collect_into(slot, endpoints, bs, ctx_);
    }
    if (fault_ != nullptr) {
      const SpanScope span(log, Layer::kSimFault, slot, parent);
      fault_->degrade_context(ctx_);
      ctx_.finalize();
    }
    {
      const SpanScope span(log, allocate_layer_, slot, parent);
      const telemetry::ScopedTimer timer(probes.decision_latency_us);
      scheduler_->allocate_into(ctx_, alloc_);
    }
    if (fault_ != nullptr) {
      const SpanScope span(log, Layer::kSimFault, slot, parent);
      fault_->reconcile_allocation(ctx_, alloc_);
    }
    const bool trace_rrc = telemetry::enabled();
    if (trace_rrc) {
      const SpanScope span(log, Layer::kTelemetry, slot, parent);
      record_clips(slot, probes);
      rrc_before_.resize(endpoints.size());
      for (std::size_t i = 0; i < endpoints.size(); ++i) rrc_before_[i] = endpoints[i].rrc.state();
    }
    {
      const SpanScope span(log, Layer::kGatewayApply, slot, parent);
      transmitter_.apply_into(ctx_, alloc_, endpoints, receiver_, outcome_);
    }
    if (trace_rrc) {
      const SpanScope span(log, Layer::kTelemetry, slot, parent);
      for (std::size_t i = 0; i < endpoints.size(); ++i) {
        const RrcState after = endpoints[i].rrc.state();
        if (after != rrc_before_[i]) {
          probes.tracer.record(slot, checked_i32(i), telemetry::TraceEventKind::kRrcTransition,
                               as_double(static_cast<int>(after)));
        }
      }
    }
    {
      const SpanScope span(log, Layer::kMediaBuffer, slot, parent);
      for (UserEndpoint& endpoint : endpoints) endpoint.buffer.end_slot();
    }
    return outcome_;
  }

 private:
  void record_clips(std::int64_t slot, GatewayProbes& probes) {
    std::int64_t granted_total = 0;
    for (std::size_t i = 0; i < ctx_.user_count(); ++i) {
      const UserSlotInfo& user = ctx_.users[i];
      const std::int64_t granted = alloc_.units[i];
      granted_total += granted;
      if (granted > 0 && granted == user.alloc_cap_units &&
          ctx_.params.need_units(user.bitrate_kbps) > user.alloc_cap_units) {
        probes.eq1_link_clips.add();
        probes.tracer.record(slot, checked_i32(i), telemetry::TraceEventKind::kClipLink,
                             as_double(granted));
      }
    }
    if (granted_total > 0 && granted_total == ctx_.capacity_units) {
      probes.eq2_capacity_clips.add();
      probes.tracer.record(slot, -1, telemetry::TraceEventKind::kClipCapacity,
                           as_double(granted_total));
    }
  }

  InfoCollector collector_;
  std::unique_ptr<Scheduler> scheduler_;
  Layer allocate_layer_;
  DataReceiver receiver_;
  DataTransmitter transmitter_;
  SlotContext ctx_;
  Allocation alloc_;
  SlotOutcome outcome_;
  SlotFaultHook* fault_ = nullptr;
  std::vector<RrcState> rrc_before_;
};

/// The EMA solver's path counters, or zeros for other schedulers.
LayerCounts ema_counts(Scheduler& scheduler) {
  LayerCounts counts;
  if (const auto* ema = dynamic_cast<const EmaScheduler*>(&scheduler)) {
    const EmaDpWorkspace& ws = ema->dp_workspace();
    counts.dp_solves = ws.dp_solves;
    counts.separable_hits = ws.separable_hits;
    counts.memo_hits = ws.memo_hits;
    counts.resumed_rows = ws.resumed_rows;
  }
  return counts;
}

void add_solver_delta(LayerCounts& into, const LayerCounts& before, const LayerCounts& after) {
  into.dp_solves += after.dp_solves - before.dp_solves;
  into.separable_hits += after.separable_hits - before.separable_hits;
  into.memo_hits += after.memo_hits - before.memo_hits;
  into.resumed_rows += after.resumed_rows - before.resumed_rows;
}

std::int64_t tracer_total() {
  return telemetry::global_registry().tracer().total_recorded();
}

TracedRound traced_ema_round(std::uint64_t seed) {
  TracedRound traced;
  Round& round = traced.round;
  const double start = now_s();
  EmaCell cell = make_ema_cell(seed);
  const ScenarioConfig& config = cell.config;
  const BaseStation bs(capacity_profile(config));
  TracedGateway gateway(config, make_scheduler("ema"));
  MetricsCollector metrics(config.users, /*keep_series=*/false);
  std::int64_t slot = 0;
  for (; slot < kEmaWarmupSlots; ++slot) {
    const SlotOutcome& outcome = gateway.run_slot(slot, cell.endpoints, bs, nullptr, -1);
    metrics.record_slot(gateway.context(), outcome);
  }
  round.setup_s = now_s() - start;

  SpanLog& log = traced.logs.emplace_back();
  const LayerCounts before = ema_counts(gateway.scheduler());
  const std::int64_t events_before = tracer_total();
  const double timed_start = now_s();
  for (; slot < config.max_slots; ++slot) {
    const SpanScope root(&log, Layer::kSlot, slot, -1);
    const SlotOutcome& outcome = gateway.run_slot(slot, cell.endpoints, bs, &log, root.id());
    const SpanScope span(&log, Layer::kSimMetrics, slot, root.id());
    metrics.record_slot(gateway.context(), outcome);
  }
  round.timed_s = now_s() - timed_start;
  traced.counts.tracer_events = tracer_total() - events_before;
  add_solver_delta(traced.counts, before, ema_counts(gateway.scheduler()));

  const RunMetrics run = metrics.finish();
  round.operations = kEmaMeasuredSlots;
  round.user_slots = static_cast<double>(kEmaMeasuredSlots) * static_cast<double>(kEmaUsers);
  round.digests = {digest(run)};
  if (traced.counts.dp_solves != kEmaMeasuredSlots) {
    round.shape_errors.push_back("the DP ran on " + std::to_string(traced.counts.dp_solves) +
                                 " of " + std::to_string(kEmaMeasuredSlots) + " measured slots");
  }
  return traced;
}

/// ServiceSimulator rebuilt from the session layer's public functions, with
/// the event boundary and the slot traced.
class TracedService {
 public:
  explicit TracedService(const ServiceConfig& config)
      : config_(config),
        manager_(config.cell, ceil_to_count(config.cell.radio.tail_duration_s() /
                                            config.cell.slot.tau_s) + 1),
        bs_(capacity_profile(config.cell)),
        gateway_(config.cell, make_scheduler("ema")),
        arrivals_(make_arrival_process(config.arrivals, config.cell.seed)),
        admission_(make_admission_controller(config.admission)),
        metrics_(config.cell.users, /*keep_series=*/false),
        service_metrics_(config.cell.users, config.warmup_slots, config.keep_session_records) {
    if (config.cell.faults.any()) throw std::invalid_argument("traced service runs are fault-free");
  }

  void step(SpanLog* log, LayerCounts& counts) {
    const std::int64_t slot = slot_++;
    const SpanScope root(log, Layer::kSlot, slot, -1);
    {
      const SpanScope span(log, Layer::kSessionBoundary, slot, root.id());
      manager_.scan_releases(slot, [&](std::size_t id, std::int64_t end_slot, bool completed) {
        service_metrics_.on_session_end(id, end_slot, manager_.endpoints()[id].delivered_kb,
                                        completed);
        ++counts.releases;
      });
      const std::int64_t count = arrivals_->arrivals_at(slot);
      if (count > 0) admit(slot, count, counts);
    }
    const SlotOutcome& outcome = gateway_.run_slot(slot, manager_.endpoints(), bs_, log, root.id());
    const SpanScope span(log, Layer::kSimMetrics, slot, root.id());
    metrics_.record_slot(gateway_.context(), outcome);
    service_metrics_.record_slot(slot, manager_.active_sessions(), outcome);
  }

  [[nodiscard]] ServiceResult finish() {
    ServiceResult result;
    result.run = metrics_.finish();
    result.service = service_metrics_.finish(manager_.active_sessions());
    return result;
  }

  [[nodiscard]] Scheduler& scheduler() noexcept { return gateway_.scheduler(); }

 private:
  double mean_bound_queue_s() {
    const std::span<const double> queues = gateway_.scheduler().virtual_queues();
    if (queues.empty() || manager_.active_sessions() == 0) return 0.0;
    double sum = 0.0;
    std::size_t bound = 0;
    for (std::size_t i = 0; i < queues.size(); ++i) {
      if (!manager_.occupied(i)) continue;
      sum += queues[i];
      ++bound;
    }
    return bound == 0 ? 0.0 : sum / as_double(bound);
  }

  void admit(std::int64_t slot, std::int64_t count, LayerCounts& counts) {
    auto& probes = SessionProbes::instance();
    const bool telemetry_on = telemetry::enabled();
    const double mean_queue = mean_bound_queue_s();
    for (std::int64_t a = 0; a < count; ++a) {
      service_metrics_.on_offered();
      if (telemetry_on) probes.offered.add();
      const std::int64_t k = arrival_index_++;
      VideoSession session = draw_session_content(config_.cell, config_.arrivals.salt, k);
      AdmissionSnapshot snapshot;
      snapshot.slot = slot;
      snapshot.active_sessions = manager_.active_sessions();
      snapshot.capacity_slots = manager_.capacity();
      snapshot.cell_capacity_kbps = bs_.capacity_kbps(slot);
      snapshot.mean_bitrate_kbps = manager_.mean_active_bitrate_kbps();
      snapshot.mean_virtual_queue_s = mean_queue;
      snapshot.offered_bitrate_kbps = session.bitrate_at_time(0.0);
      if (!admission_->admit(snapshot)) {
        service_metrics_.on_rejected();
        if (telemetry_on) probes.rejected.add();
        continue;
      }
      if (!manager_.has_free_slot()) {
        service_metrics_.on_blocked();
        if (telemetry_on) probes.blocked.add();
        continue;
      }
      const std::size_t id = manager_.peek_free();
      manager_.bind(slot, std::move(session), UserEndpoint::kNeverSlot);
      gateway_.scheduler().reset_user(id);
      service_metrics_.on_session_start(id, slot, k);
      if (telemetry_on) probes.accepted.add();
      ++counts.binds;
    }
  }

  ServiceConfig config_;
  SessionManager manager_;
  BaseStation bs_;
  TracedGateway gateway_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<AdmissionController> admission_;
  MetricsCollector metrics_;
  ServiceMetricsCollector service_metrics_;
  std::int64_t slot_ = 0;
  std::int64_t arrival_index_ = 0;
};

TracedRound traced_service_round(std::uint64_t seed) {
  TracedRound traced;
  Round& round = traced.round;
  const double start = now_s();
  TracedService service(service_churn_config(seed));
  LayerCounts warmup_counts;
  for (std::int64_t i = 0; i < kServiceWarmupSlots; ++i) service.step(nullptr, warmup_counts);
  round.setup_s = now_s() - start;

  SpanLog& log = traced.logs.emplace_back();
  const LayerCounts before = ema_counts(service.scheduler());
  const std::int64_t events_before = tracer_total();
  const double timed_start = now_s();
  for (std::int64_t i = 0; i < kServiceMeasuredSlots; ++i) service.step(&log, traced.counts);
  round.timed_s = now_s() - timed_start;
  traced.counts.tracer_events = tracer_total() - events_before;
  add_solver_delta(traced.counts, before, ema_counts(service.scheduler()));

  const ServiceResult result = service.finish();
  round.operations = kServiceMeasuredSlots;
  round.user_slots = static_cast<double>(result.service.active_user_slots);
  round.digests = {digest(result.run, result.service)};
  if (result.service.blocked != 0) {
    round.shape_errors.push_back(std::to_string(result.service.blocked) +
                                 " arrivals were blocked");
  }
  return traced;
}

/// One traced campaign cell: Simulator::run rebuilt around TracedGateway.
struct TracedCell {
  RunMetrics run;
  SpanLog log;
  LayerCounts counts;
  double busy_s = 0.0;
};

TracedCell traced_cell(const ExperimentSpec& spec, std::shared_ptr<const SignalTraceSet> trace) {
  TracedCell cell;
  const double start = now_s();
  const SpanScope cell_span(&cell.log, Layer::kCell, -1, -1);
  const ScenarioConfig& config = spec.scenario;
  std::vector<UserEndpoint> endpoints = build_endpoints(config);
  for (std::size_t i = 0; i < endpoints.size(); ++i) endpoints[i].attach_trace(trace.get(), i);
  const BaseStation bs(capacity_profile(config));
  TracedGateway gateway(config,
                        make_scheduler_for_scenario(spec.scheduler, spec.options, config));
  std::unique_ptr<FaultInjector> injector;
  if (config.faults.any()) {
    injector = std::make_unique<FaultInjector>(
        std::make_shared<const FaultSchedule>(make_fault_schedule(config)));
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      endpoints[i].depart_at(injector->schedule().departure_slot(i));
    }
    gateway.attach_fault_hook(injector.get());
  }
  MetricsCollector metrics(config.users, /*keep_series=*/true);
  EarlyStop early_stop(config);
  for (std::int64_t slot = 0; slot < config.max_slots; ++slot) {
    {
      const SpanScope root(&cell.log, Layer::kSlot, slot, cell_span.id());
      const SlotOutcome& outcome = gateway.run_slot(slot, endpoints, bs, &cell.log, root.id());
      const SpanScope span(&cell.log, Layer::kSimMetrics, slot, root.id());
      metrics.record_slot(gateway.context(), outcome);
    }
    if (early_stop.done(slot, endpoints)) break;
  }
  cell.counts = ema_counts(gateway.scheduler());
  cell.run = metrics.finish();
  cell.busy_s = now_s() - start;
  return cell;
}

}  // namespace

TracedRound run_traced_round(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::kEmaCongested: return traced_ema_round(seed);
    case Workload::kServiceChurn: return traced_service_round(seed);
    case Workload::kFaultSweep: break;
  }
  throw std::invalid_argument("the sweep is traced with run_traced_sweep");
}

TracedRound run_traced_sweep(const SweepSetup& setup) {
  TracedRound traced;
  Round& round = traced.round;
  CampaignOptions options;
  options.keep_series = true;
  options.cache = setup.cache.get();
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  options.threads = threads;

  const std::uint64_t hits_before = setup.cache->hits();
  const std::int64_t events_before = tracer_total();
  const double timed_start = now_s();
  std::vector<TracedCell> cells = run_campaign_cells(
      setup.specs.size(), options,
      [&](std::size_t i) { return CampaignCell{&setup.specs[i].scenario, 0}; },
      [&](std::size_t i, std::shared_ptr<const SignalTraceSet> trace) {
        return traced_cell(setup.specs[i], std::move(trace));
      });
  round.timed_s = now_s() - timed_start;
  traced.counts.tracer_events = tracer_total() - events_before;
  traced.trace_hits = setup.cache->hits() - hits_before;

  double busy_s = 0.0;
  for (TracedCell& cell : cells) {
    round.user_slots += static_cast<double>(cell.run.slots_run) * static_cast<double>(kSweepUsers);
    round.digests.push_back(digest(cell.run));
    add_solver_delta(traced.counts, LayerCounts{}, cell.counts);
    busy_s += cell.busy_s;
    traced.logs.push_back(std::move(cell.log));
  }
  round.operations = static_cast<std::int64_t>(cells.size());
  traced.pool_idle_s = static_cast<double>(threads) * round.timed_s - busy_s;
  if (traced.trace_hits != setup.specs.size()) {
    round.shape_errors.push_back("campaign cells were not all served from the trace cache");
  }
  return traced;
}

}  // namespace perfbench
