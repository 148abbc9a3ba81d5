// Channel-quality to throughput/power mappings (Definitions 3 and 4).
//
// The paper fits both as functions of RSSI (Eq. 24, from the ENVI
// measurements [28]):
//
//   v(sig) = 65.8 * sig + 7567.0        [KB/s]   (sig in dBm)
//   P(sig) = -0.167 + 1560 / v(sig)     [mJ/KB]
//
// Both are exposed behind small interfaces so alternative fits (e.g. stepwise
// MCS tables) can be plugged in without touching schedulers. Each interface
// has a per-value form and a batch form over a span of signals; the
// InfoCollector evaluates the batch form once per slot over the slot's
// signal lane. A batch form must write exactly what the per-value form
// returns for each element, bit for bit, and throw exactly what the
// per-value loop over the span would throw first.
#pragma once

#include <memory>
#include <span>

namespace jstream {

/// Definition 3: maximum data amount transmitted per second (KB/s) at a given
/// signal strength.
class ThroughputModel {
 public:
  virtual ~ThroughputModel() = default;
  /// Throughput in KB/s. Implementations must return a positive value over
  /// their declared signal range.
  [[nodiscard]] virtual double throughput_kbps(double signal_dbm) const = 0;

  /// Batch form: out[i] = throughput_kbps(signal_dbm[i]) for every i. The
  /// spans have equal sizes and must not overlap. The default calls the
  /// per-value form element by element.
  virtual void throughput_kbps_batch(std::span<const double> signal_dbm,
                                     std::span<double> out) const;
};

/// Definition 4: energy consumed per kilobyte (mJ/KB) at a given signal
/// strength.
class PowerModel {
 public:
  virtual ~PowerModel() = default;
  [[nodiscard]] virtual double energy_per_kb(double signal_dbm) const = 0;

  /// Batch form: out[i] = energy_per_kb(signal_dbm[i]) for every i. The
  /// spans have equal sizes and must not overlap. The default calls the
  /// per-value form element by element.
  virtual void energy_per_kb_batch(std::span<const double> signal_dbm,
                                   std::span<double> out) const;
};

/// Eq. 24 linear throughput fit.
class LinearThroughputModel final : public ThroughputModel {
 public:
  /// v(sig) = slope * sig + intercept; defaults are the paper's constants.
  explicit LinearThroughputModel(double slope = 65.8, double intercept = 7567.0);

  [[nodiscard]] double throughput_kbps(double signal_dbm) const override;

  /// One vectorisable multiply-add pass (the per-value expression; the TU is
  /// built without FP contraction), then one range check over the results.
  void throughput_kbps_batch(std::span<const double> signal_dbm,
                             std::span<double> out) const override;

  /// Inverse map: the signal strength at which throughput equals `kbps`.
  /// Used by RTMA's Eq. 12 conversion.
  [[nodiscard]] double signal_for_throughput(double kbps) const;

  [[nodiscard]] double slope() const noexcept { return slope_; }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }

 private:
  double slope_;
  double intercept_;
};

/// Eq. 24 per-KB power fit, parameterized on a throughput model:
/// P(sig) = offset + scale / v(sig).
class FittedPowerModel final : public PowerModel {
 public:
  FittedPowerModel(std::shared_ptr<const ThroughputModel> throughput,
                   double offset = -0.167, double scale = 1560.0);

  [[nodiscard]] double energy_per_kb(double signal_dbm) const override;

  /// The throughput model's batch form into `out`, then one vectorisable
  /// offset + scale / v pass over it in place.
  void energy_per_kb_batch(std::span<const double> signal_dbm,
                           std::span<double> out) const override;

  /// Instantaneous radio power (mW) when transmitting at full rate:
  /// P(sig) * v(sig) = offset * v(sig) + scale.
  [[nodiscard]] double full_rate_power_mw(double signal_dbm) const;

 private:
  std::shared_ptr<const ThroughputModel> throughput_;
  double offset_;
  double scale_;
};

/// Bundles the two fits used by schedulers and the simulator.
struct LinkModel {
  std::shared_ptr<const ThroughputModel> throughput;
  std::shared_ptr<const PowerModel> power;
};

/// The paper's Eq. 24 link model.
[[nodiscard]] LinkModel make_paper_link_model();

}  // namespace jstream
