#include "sim/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace jstream {

namespace {

/// Little-endian byte image the digests hash: integers fixed-width, doubles
/// as their IEEE-754 bit patterns, so no rounding ever hides a difference.
class DigestBytes {
 public:
  void u64(std::uint64_t value) { append(&value, sizeof(value)); }
  void i64(std::int64_t value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u64(value ? 1 : 0); }
  void doubles(std::span<const double> values) {
    u64(values.size());
    append(values.data(), values.size_bytes());
  }
  [[nodiscard]] std::uint64_t digest() const {
    return xxh64(bytes_.data(), bytes_.size());
  }

 private:
  void append(const void* data, std::size_t size) {
    if (size == 0) return;
    const std::size_t at = bytes_.size();
    bytes_.resize(at + size);
    std::memcpy(bytes_.data() + at, data, size);
  }

  std::vector<std::uint8_t> bytes_;
};

void encode(DigestBytes& out, const RunMetrics& metrics) {
  out.i64(metrics.slots_run);
  out.u64(metrics.per_user.size());
  for (const UserTotals& user : metrics.per_user) {
    out.f64(user.trans_mj);
    out.f64(user.tail_mj);
    out.f64(user.rebuffer_s);
    out.f64(user.delivered_kb);
    out.i64(user.session_slots);
    out.i64(user.tx_slots);
    out.boolean(user.playback_finished);
  }
  out.doubles(metrics.slot_fairness);
  out.doubles(metrics.slot_energy_mj);
  out.doubles(metrics.rebuffer_samples_s);
}

void encode(DigestBytes& out, const ServiceMetrics& service) {
  out.i64(service.slots_run);
  out.i64(service.warmup_slots);
  out.u64(service.capacity_slots);
  out.i64(service.offered);
  out.i64(service.admitted);
  out.i64(service.rejected);
  out.i64(service.blocked);
  out.i64(service.completed);
  out.i64(service.aborted);
  out.i64(service.in_flight_at_end);
  out.i64(service.measured_slots);
  out.f64(service.concurrency_sum);
  out.u64(service.peak_concurrency);
  out.f64(service.rebuffer_sum_s);
  out.i64(service.active_user_slots);
  out.f64(service.energy_sum_mj);
  out.i64(service.sessions_measured);
  out.f64(service.session_rebuffer_sum_s);
  out.f64(service.session_energy_sum_mj);
  out.f64(service.session_delivered_sum_kb);
  out.i64(service.session_length_slots_sum);
  out.u64(service.records.size());
  for (const SessionRecord& record : service.records) {
    out.u64(record.user_slot);
    out.i64(record.arrival_index);
    out.i64(record.start_slot);
    out.i64(record.end_slot);
    out.f64(record.delivered_kb);
    out.f64(record.rebuffer_s);
    out.f64(record.energy_mj);
    out.boolean(record.completed);
  }
}

}  // namespace

std::uint64_t metrics_digest(const RunMetrics& metrics) {
  DigestBytes out;
  encode(out, metrics);
  return out.digest();
}

std::uint64_t metrics_digest(std::span<const RunMetrics> metrics) {
  DigestBytes out;
  out.u64(metrics.size());
  for (const RunMetrics& m : metrics) encode(out, m);
  return out.digest();
}

std::uint64_t metrics_digest(const RunMetrics& run, const ServiceMetrics& service) {
  DigestBytes out;
  encode(out, run);
  encode(out, service);
  return out.digest();
}

double RunMetrics::total_energy_mj() const noexcept {
  return total_trans_mj() + total_tail_mj();
}

double RunMetrics::total_trans_mj() const noexcept {
  double total = 0.0;
  for (const auto& u : per_user) total += u.trans_mj;
  return total;
}

double RunMetrics::total_tail_mj() const noexcept {
  double total = 0.0;
  for (const auto& u : per_user) total += u.tail_mj;
  return total;
}

double RunMetrics::total_rebuffer_s() const noexcept {
  double total = 0.0;
  for (const auto& u : per_user) total += u.rebuffer_s;
  return total;
}

double RunMetrics::avg_energy_per_user_slot_mj() const noexcept {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& u : per_user) {
    const auto slots = std::max<std::int64_t>(u.session_slots, 1);
    sum += u.energy_mj() / as_double(slots);
  }
  return sum / as_double(per_user.size());
}

double RunMetrics::avg_tail_per_user_slot_mj() const noexcept {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& u : per_user) {
    const auto slots = std::max<std::int64_t>(u.session_slots, 1);
    sum += u.tail_mj / as_double(slots);
  }
  return sum / as_double(per_user.size());
}

double RunMetrics::avg_rebuffer_per_user_slot_s() const noexcept {
  if (per_user.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& u : per_user) {
    const auto slots = std::max<std::int64_t>(u.session_slots, 1);
    sum += u.rebuffer_s / as_double(slots);
  }
  return sum / as_double(per_user.size());
}

double RunMetrics::mean_fairness() const noexcept {
  if (slot_fairness.empty()) return 1.0;
  double sum = 0.0;
  for (double f : slot_fairness) sum += f;
  return sum / as_double(slot_fairness.size());
}

double RunMetrics::completion_rate() const noexcept {
  if (per_user.empty()) return 0.0;
  const auto done = std::count_if(per_user.begin(), per_user.end(),
                                  [](const UserTotals& u) { return u.playback_finished; });
  return as_double(done) / as_double(per_user.size());
}

MetricsCollector::MetricsCollector(std::size_t users, bool keep_series)
    : keep_series_(keep_series) {
  // Zero users is a legal degenerate run: every aggregate below guards its
  // divisions, so summarization and export of an empty run stay well-defined.
  metrics_.per_user.resize(users);
}

void MetricsCollector::record_slot(const SlotContext& ctx, const SlotOutcome& outcome) {
  const std::size_t n = metrics_.per_user.size();
  require(ctx.user_count() == n && outcome.units.size() == n,
          "slot record size mismatch");
  ++metrics_.slots_run;

  double slot_energy = 0.0;
  shares_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    UserTotals& user = metrics_.per_user[i];
    const UserSlotInfo& info = ctx.users[i];
    user.trans_mj += outcome.trans_mj[i];
    user.tail_mj += outcome.tail_mj[i];
    user.delivered_kb += outcome.kb[i];
    if (outcome.units[i] > 0) ++user.tx_slots;
    slot_energy += outcome.trans_mj[i] + outcome.tail_mj[i];

    // A departed user's session is over without finishing: it stops accruing
    // session slots and stall time the moment it aborts.
    const bool in_playback = info.arrived && !info.playback_done && !info.departed;
    if (in_playback) {
      user.rebuffer_s += outcome.rebuffer_s[i];
      ++user.session_slots;
      if (keep_series_) metrics_.rebuffer_samples_s.push_back(outcome.rebuffer_s[i]);
    } else if (info.playback_done && !info.departed) {
      user.playback_finished = true;
    }
    // Fairness shares feed only the per-slot series.
    if (keep_series_ && outcome.need_kb[i] > 0.0) {
      shares_.push_back(outcome.kb[i] / outcome.need_kb[i]);
    }
  }
  if (keep_series_) {
    metrics_.slot_energy_mj.push_back(slot_energy);
    // A slot where every demanding user is starved (all shares zero — e.g.
    // everyone outaged) is uniformly unfair to no one: jain_index defines it
    // as 1.0. A slot with no demand at all contributes no sample.
    if (!shares_.empty()) metrics_.slot_fairness.push_back(jain_index(shares_));
  }
}

RunMetrics MetricsCollector::finish() { return std::move(metrics_); }

double ServiceMetrics::mean_concurrency() const noexcept {
  return measured_slots == 0 ? 0.0
                             : concurrency_sum / as_double(measured_slots);
}

double ServiceMetrics::admit_rate() const noexcept {
  return offered == 0 ? 1.0
                      : as_double(admitted) / as_double(offered);
}

double ServiceMetrics::session_completion_rate() const noexcept {
  const std::int64_t ended = completed + aborted;
  return ended == 0 ? 0.0
                    : as_double(completed) / as_double(ended);
}

double ServiceMetrics::mean_rebuffer_per_user_slot_s() const noexcept {
  return active_user_slots == 0
             ? 0.0
             : rebuffer_sum_s / as_double(active_user_slots);
}

double ServiceMetrics::mean_energy_per_user_slot_mj() const noexcept {
  return active_user_slots == 0
             ? 0.0
             : energy_sum_mj / as_double(active_user_slots);
}

double ServiceMetrics::mean_session_rebuffer_s() const noexcept {
  return sessions_measured == 0
             ? 0.0
             : session_rebuffer_sum_s / as_double(sessions_measured);
}

double ServiceMetrics::mean_session_energy_mj() const noexcept {
  return sessions_measured == 0
             ? 0.0
             : session_energy_sum_mj / as_double(sessions_measured);
}

double ServiceMetrics::mean_session_slots() const noexcept {
  return sessions_measured == 0
             ? 0.0
             : as_double(session_length_slots_sum) /
                   as_double(sessions_measured);
}

ServiceMetricsCollector::ServiceMetricsCollector(std::size_t capacity_slots,
                                                 std::int64_t warmup_slots,
                                                 bool keep_records)
    : keep_records_(keep_records),
      session_rebuffer_s_(capacity_slots, 0.0),
      session_energy_mj_(capacity_slots, 0.0),
      session_start_(capacity_slots, 0),
      session_arrival_index_(capacity_slots, -1) {
  require(warmup_slots >= 0, "warmup must be non-negative");
  metrics_.warmup_slots = warmup_slots;
  metrics_.capacity_slots = capacity_slots;
}

void ServiceMetricsCollector::on_session_start(std::size_t user_slot,
                                               std::int64_t slot,
                                               std::int64_t arrival_index) {
  require(user_slot < session_rebuffer_s_.size(), "unknown population slot");
  ++metrics_.admitted;
  session_rebuffer_s_[user_slot] = 0.0;
  session_energy_mj_[user_slot] = 0.0;
  session_start_[user_slot] = slot;
  session_arrival_index_[user_slot] = arrival_index;
}

void ServiceMetricsCollector::on_session_end(std::size_t user_slot,
                                             std::int64_t end_slot,
                                             double delivered_kb, bool completed) {
  require(user_slot < session_rebuffer_s_.size(), "unknown population slot");
  ++(completed ? metrics_.completed : metrics_.aborted);
  // Only sessions that lived entirely inside the measured window join the
  // steady-state distributions; warmup-era sessions still count in the flow
  // totals above.
  if (session_start_[user_slot] >= metrics_.warmup_slots) {
    ++metrics_.sessions_measured;
    metrics_.session_rebuffer_sum_s += session_rebuffer_s_[user_slot];
    metrics_.session_energy_sum_mj += session_energy_mj_[user_slot];
    metrics_.session_delivered_sum_kb += delivered_kb;
    metrics_.session_length_slots_sum += end_slot - session_start_[user_slot];
    if (keep_records_) {
      metrics_.records.push_back(SessionRecord{
          user_slot, session_arrival_index_[user_slot], session_start_[user_slot],
          end_slot, delivered_kb, session_rebuffer_s_[user_slot],
          session_energy_mj_[user_slot], completed});
    }
  }
  session_arrival_index_[user_slot] = -1;
}

void ServiceMetricsCollector::record_slot(std::int64_t slot,
                                          std::size_t active_sessions,
                                          const SlotOutcome& outcome) {
  const std::size_t n = session_rebuffer_s_.size();
  require(outcome.rebuffer_s.size() == n && outcome.trans_mj.size() == n &&
              outcome.tail_mj.size() == n,
          "service slot record size mismatch");
  ++metrics_.slots_run;
  double slot_rebuffer = 0.0;
  double slot_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double energy = outcome.trans_mj[i] + outcome.tail_mj[i];
    session_rebuffer_s_[i] += outcome.rebuffer_s[i];
    session_energy_mj_[i] += energy;
    slot_rebuffer += outcome.rebuffer_s[i];
    slot_energy += energy;
  }
  if (slot < metrics_.warmup_slots) return;
  ++metrics_.measured_slots;
  metrics_.concurrency_sum += as_double(active_sessions);
  metrics_.peak_concurrency = std::max(metrics_.peak_concurrency, active_sessions);
  metrics_.rebuffer_sum_s += slot_rebuffer;
  metrics_.active_user_slots += checked_index(active_sessions);
  metrics_.energy_sum_mj += slot_energy;
}

ServiceMetrics ServiceMetricsCollector::finish(std::size_t in_flight) {
  metrics_.in_flight_at_end = checked_index(in_flight);
  return std::move(metrics_);
}

}  // namespace jstream
