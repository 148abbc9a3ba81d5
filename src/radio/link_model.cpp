#include "radio/link_model.hpp"

#include <cstddef>
#include <functional>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace jstream {

namespace {

/// The batch forms' shared precondition: equal sizes and no overlap, so the
/// input is still intact when a rejection re-runs the per-value form.
void require_batch_spans(std::span<const double> signal_dbm, std::span<const double> out) {
  const std::size_t n = signal_dbm.size();
  require(out.size() == n, "batch fit spans differ in size");
  const double* in = signal_dbm.data();
  const double* to = out.data();
  const std::less<const double*> less;
  require(n == 0 || !less(to, in + n) || !less(in, to + n), "batch fit spans overlap");
}

/// A batch pass found a value outside the fit's range. Re-running the
/// per-value form over the untouched input throws exactly what the per-value
/// loop would have thrown first.
template <typename PerValue>
[[noreturn]] void throw_first_per_value_error(std::span<const double> signal_dbm, PerValue per_value) {
  for (const double signal : signal_dbm) (void)per_value(signal);
  throw Error("batch fit rejected a value its per-value form accepts");
}

}  // namespace

void ThroughputModel::throughput_kbps_batch(std::span<const double> signal_dbm,
                                            std::span<double> out) const {
  require_batch_spans(signal_dbm, out);
  for (std::size_t i = 0; i < signal_dbm.size(); ++i) out[i] = throughput_kbps(signal_dbm[i]);
}

void PowerModel::energy_per_kb_batch(std::span<const double> signal_dbm,
                                     std::span<double> out) const {
  require_batch_spans(signal_dbm, out);
  for (std::size_t i = 0; i < signal_dbm.size(); ++i) out[i] = energy_per_kb(signal_dbm[i]);
}

LinearThroughputModel::LinearThroughputModel(double slope, double intercept)
    : slope_(slope), intercept_(intercept) {
  require(slope_ > 0.0, "throughput slope must be positive");
}

double LinearThroughputModel::throughput_kbps(double signal_dbm) const {
  const double v = slope_ * signal_dbm + intercept_;
  require(v > 0.0, "throughput fit is non-positive at this signal strength");
  return v;
}

// jstream: hot-path — once per slot over the collector's signal lane.
void LinearThroughputModel::throughput_kbps_batch(std::span<const double> signal_dbm,
                                                  std::span<double> out) const {
  require_batch_spans(signal_dbm, out);
  const double* JSTREAM_RESTRICT signal = signal_dbm.data();
  double* JSTREAM_RESTRICT v = out.data();
  const double slope = slope_;
  const double intercept = intercept_;
  // Counting, not branching, keeps the loop a single vector pass; NaN fails
  // `> 0` here as it fails the per-value require.
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < signal_dbm.size(); ++i) {
    const double value = slope * signal[i] + intercept;
    v[i] = value;
    rejected += value > 0.0 ? std::size_t{0} : std::size_t{1};
  }
  if (rejected != 0) {
    throw_first_per_value_error(signal_dbm, [this](double s) { return throughput_kbps(s); });
  }
}

double LinearThroughputModel::signal_for_throughput(double kbps) const {
  return (kbps - intercept_) / slope_;
}

FittedPowerModel::FittedPowerModel(std::shared_ptr<const ThroughputModel> throughput,
                                   double offset, double scale)
    : throughput_(std::move(throughput)), offset_(offset), scale_(scale) {
  require(throughput_ != nullptr, "power model needs a throughput model");
  require(scale_ > 0.0, "power scale must be positive");
}

double FittedPowerModel::energy_per_kb(double signal_dbm) const {
  const double v = throughput_->throughput_kbps(signal_dbm);
  const double p = offset_ + scale_ / v;
  require(p > 0.0, "power fit is non-positive at this signal strength");
  return p;
}

// jstream: hot-path — once per slot over the collector's signal lane.
void FittedPowerModel::energy_per_kb_batch(std::span<const double> signal_dbm,
                                           std::span<double> out) const {
  require_batch_spans(signal_dbm, out);
  // v(sig) lands in `out` first; a throughput rejection is re-raised through
  // the per-value power form so an earlier power rejection still wins.
  try {
    throughput_->throughput_kbps_batch(signal_dbm, out);
  } catch (const Error&) {
    throw_first_per_value_error(signal_dbm, [this](double s) { return energy_per_kb(s); });
  }
  double* JSTREAM_RESTRICT p = out.data();
  const double offset = offset_;
  const double scale = scale_;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double value = offset + scale / p[i];
    p[i] = value;
    rejected += value > 0.0 ? std::size_t{0} : std::size_t{1};
  }
  if (rejected != 0) {
    throw_first_per_value_error(signal_dbm, [this](double s) { return energy_per_kb(s); });
  }
}

double FittedPowerModel::full_rate_power_mw(double signal_dbm) const {
  const double v = throughput_->throughput_kbps(signal_dbm);
  return energy_per_kb(signal_dbm) * v;  // mJ/KB * KB/s = mJ/s = mW
}

LinkModel make_paper_link_model() {
  auto throughput = std::make_shared<const LinearThroughputModel>();
  auto power = std::make_shared<const FittedPowerModel>(throughput);
  return LinkModel{throughput, power};
}

}  // namespace jstream
