#include "abr/abr_simulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "common/rng.hpp"
#include "net/base_station.hpp"
#include "radio/rrc.hpp"

namespace jstream {
namespace {

struct AbrUser {
  std::unique_ptr<SignalModel> signal;
  std::unique_ptr<AbrClient> client;
  RrcStateMachine rrc;
  double throughput_estimate_kbps = 0.0;

  AbrUser(std::unique_ptr<SignalModel> signal_model, std::unique_ptr<AbrClient> c,
          RadioProfile radio)
      : signal(std::move(signal_model)), client(std::move(c)), rrc(radio) {}
};

}  // namespace

double AbrRunMetrics::mean_quality_kbps() const {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& user : per_user) {
    sum += user.qoe.mean_quality_kbps(user.duration_s);
  }
  return sum / as_double(per_user.size());
}

double AbrRunMetrics::mean_rebuffer_s() const {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& user : per_user) sum += user.qoe.rebuffer_s;
  return sum / as_double(per_user.size());
}

double AbrRunMetrics::mean_switches() const {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& user : per_user) {
    sum += as_double(user.qoe.switches);
  }
  return sum / as_double(per_user.size());
}

double AbrRunMetrics::mean_qoe_score() const {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& user : per_user) sum += user.qoe.score(user.duration_s);
  return sum / as_double(per_user.size());
}

double AbrRunMetrics::total_energy_mj() const {
  double sum = 0.0;
  for (const auto& user : per_user) sum += user.trans_mj + user.tail_mj;
  return sum;
}

double AbrRunMetrics::completion_rate() const {
  if (per_user.empty()) return 0.0;
  const auto done =
      std::count_if(per_user.begin(), per_user.end(),
                    [](const AbrUserResult& u) { return u.playback_finished; });
  return as_double(done) / as_double(per_user.size());
}

AbrRunMetrics simulate_abr(const AbrScenarioConfig& config,
                           std::unique_ptr<Scheduler> scheduler) {
  validate(config.base);
  require(scheduler != nullptr, "ABR simulation needs a scheduler");
  require(config.duration_min_s > 0.0 &&
              config.duration_min_s <= config.duration_max_s,
          "content duration range is invalid");
  require(config.segment_s > 0.0, "segment length must be positive");
  require(config.throughput_ewma_alpha > 0.0 && config.throughput_ewma_alpha <= 1.0,
          "EWMA alpha must be in (0,1]");
  const QualityLadder ladder(config.ladder_kbps);

  // Population: same deterministic split-stream construction as the CBR
  // scenario builder, with durations instead of sizes.
  const ScenarioConfig& base = config.base;
  // jstream-lint: allow(rng-discipline) -- ABR scenario root stream,
  // mirroring build_endpoints' seeding so both builders stay comparable.
  const Rng scenario_rng(base.seed);
  std::vector<AbrUser> users;
  users.reserve(base.users);
  std::vector<UserEndpoint> signal_source = build_endpoints(base);
  for (std::size_t i = 0; i < base.users; ++i) {
    Rng user_rng = scenario_rng.split(i ^ 0xabc0ULL);
    const double duration =
        user_rng.uniform(config.duration_min_s, config.duration_max_s);
    auto client = std::make_unique<AbrClient>(
        duration, config.segment_s, ladder,
        make_quality_selector(config.selector), base.slot.tau_s);
    users.emplace_back(std::move(signal_source[i].signal), std::move(client),
                       base.radio);
  }

  const BaseStation bs(capacity_profile(base));
  scheduler->reset(base.users);

  AbrRunMetrics metrics;
  metrics.per_user.resize(base.users);
  const std::int64_t tail_flush =
      ceil_to_count(base.radio.tail_duration_s() / base.slot.tau_s) + 1;
  std::int64_t idle_streak = 0;
  Allocation alloc;

  for (std::int64_t slot = 0; slot < base.max_slots; ++slot) {
    ++metrics.slots_run;
    for (auto& user : users) user.client->begin_slot();

    // Cross-layer snapshot: the "required rate" is the representation the
    // client is downloading right now.
    SlotContext ctx;
    ctx.slot = slot;
    ctx.params = base.slot;
    ctx.capacity_units = bs.capacity_units(slot, base.slot);
    ctx.throughput = base.link.throughput.get();
    ctx.power = base.link.power.get();
    ctx.radio = &base.radio;
    for (auto& user : users) {
      UserSlotInfo info;
      info.signal_dbm = user.signal->signal_dbm(slot);
      info.bitrate_kbps = user.client->current_rate_kbps();
      info.throughput_kbps = base.link.throughput->throughput_kbps(info.signal_dbm);
      info.energy_per_kb = base.link.power->energy_per_kb(info.signal_dbm);
      info.remaining_kb = user.client->estimated_remaining_kb();
      info.needs_data = info.remaining_kb > 0.0;
      info.link_units = base.slot.link_units(info.throughput_kbps);
      const std::int64_t remaining_units =
          ceil_to_count(info.remaining_kb / base.slot.delta_kb);
      info.alloc_cap_units =
          std::max<std::int64_t>(0, std::min(info.link_units, remaining_units));
      info.buffer_s = user.client->buffer().occupancy_s();
      info.elapsed_play_s = user.client->buffer().elapsed_s();
      info.total_play_s = user.client->buffer().total_s();
      info.rrc_idle_s = user.rrc.idle_time_s();
      info.rrc_promoted = !user.rrc.never_transmitted();
      info.playback_done = user.client->playback_finished();
      ctx.users.push_back(info);
    }
    ctx.finalize();

    scheduler->allocate_into(ctx, alloc);
    std::vector<std::int64_t> caps;
    for (const auto& info : ctx.users) caps.push_back(info.alloc_cap_units);
    require_feasible(alloc, caps, ctx.capacity_units);

    for (std::size_t i = 0; i < users.size(); ++i) {
      AbrUser& user = users[i];
      AbrUserResult& out = metrics.per_user[i];
      if (!user.client->playback_finished()) user.client->record_rebuffer();
      double kb = 0.0;
      if (alloc.units[i] > 0) {
        kb = std::min(base.slot.units_to_kb(alloc.units[i]),
                      ctx.users[i].remaining_kb);
        kb = user.client->on_downloaded(kb, user.throughput_estimate_kbps);
        out.trans_mj += ctx.power->energy_per_kb(ctx.users[i].signal_dbm) * kb;
        const double rate = kb / base.slot.tau_s;
        user.throughput_estimate_kbps =
            user.throughput_estimate_kbps == 0.0
                ? rate
                : (1.0 - config.throughput_ewma_alpha) * user.throughput_estimate_kbps +
                      config.throughput_ewma_alpha * rate;
      }
      const double active_s =
          kb > 0.0 ? std::min(kb / base.link.throughput->throughput_kbps(
                                       ctx.users[i].signal_dbm),
                              base.slot.tau_s)
                   : 0.0;
      out.tail_mj += user.rrc.advance_slot(active_s, base.slot.tau_s);
      user.client->end_slot();
    }

    if (!base.early_stop) continue;
    const bool all_done =
        std::all_of(users.begin(), users.end(), [](const AbrUser& user) {
          return user.client->download_finished() &&
                 user.client->playback_finished();
        });
    idle_streak = all_done ? idle_streak + 1 : 0;
    if (idle_streak >= tail_flush) break;
  }

  for (std::size_t i = 0; i < users.size(); ++i) {
    metrics.per_user[i].qoe = users[i].client->qoe();
    metrics.per_user[i].duration_s = users[i].client->duration_s();
    metrics.per_user[i].playback_finished = users[i].client->playback_finished();
  }
  return metrics;
}

}  // namespace jstream
