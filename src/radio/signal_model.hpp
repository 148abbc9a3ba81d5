// Per-user received-signal-strength (RSSI) processes.
//
// The paper's evaluation (Section VI) drives each user with a sine wave over
// [-110, -50] dBm plus white Gaussian noise and a per-user phase shift. The
// library additionally provides constant, trace-driven, and Gauss-Markov
// models so scenarios beyond the paper's can be expressed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace jstream {

/// Default clamping range for RSSI values, matching the paper's sweep.
inline constexpr double kMinSignalDbm = -110.0;
inline constexpr double kMaxSignalDbm = -50.0;

/// A signal model produces sig_i(n), the RSSI of one user in slot n
/// (Definition 2). Implementations must be deterministic given their
/// construction inputs.
class SignalModel {
 public:
  virtual ~SignalModel() = default;

  /// RSSI in dBm for slot `slot` (0-based).
  [[nodiscard]] virtual double signal_dbm(std::int64_t slot) = 0;
};

/// Time-invariant signal; useful in unit tests and controlled experiments.
class ConstantSignalModel final : public SignalModel {
 public:
  explicit ConstantSignalModel(double dbm);
  [[nodiscard]] double signal_dbm(std::int64_t slot) override;

 private:
  double dbm_;
};

/// Parameters of the paper's sinusoidal RSSI process.
struct SineSignalParams {
  double min_dbm = kMinSignalDbm;   ///< trough of the sine
  double max_dbm = kMaxSignalDbm;   ///< crest of the sine
  double period_slots = 600.0;      ///< full cycle length (slots); paper unspecified
  double phase_radians = 0.0;       ///< per-user phase shift
  double noise_stddev_db = 4.0;     ///< AWGN on top of the sine (see DESIGN.md)
};

/// Sine + white Gaussian noise, clamped to [min_dbm, max_dbm] (Section VI).
class SineSignalModel final : public SignalModel {
 public:
  SineSignalModel(SineSignalParams params, Rng rng);
  [[nodiscard]] double signal_dbm(std::int64_t slot) override;

  [[nodiscard]] const SineSignalParams& params() const noexcept { return params_; }

 private:
  SineSignalParams params_;
  Rng rng_;
  std::int64_t next_slot_ = 0;
  double last_value_ = 0.0;
};

/// Replays a recorded RSSI trace, repeating it when the simulation outlives
/// the trace (stand-in for real signal measurements, e.g. Bartendr-style logs).
class TraceSignalModel final : public SignalModel {
 public:
  explicit TraceSignalModel(std::vector<double> trace_dbm);
  [[nodiscard]] double signal_dbm(std::int64_t slot) override;

 private:
  std::vector<double> trace_;
};

/// First-order Gauss-Markov (AR(1)) RSSI process: captures channel coherence
/// without the sine's periodic structure. sig(n+1) = mean + rho*(sig(n)-mean) + w.
class GaussMarkovSignalModel final : public SignalModel {
 public:
  struct Params {
    double mean_dbm = -80.0;
    double rho = 0.95;          ///< correlation between consecutive slots, [0,1)
    double noise_stddev_db = 3.0;
    double min_dbm = kMinSignalDbm;
    double max_dbm = kMaxSignalDbm;
  };

  GaussMarkovSignalModel(Params params, Rng rng);
  [[nodiscard]] double signal_dbm(std::int64_t slot) override;

 private:
  Params params_;
  Rng rng_;
  std::int64_t next_slot_ = 0;
  double value_;
};

/// Throw jstream::Error naming the first invalid field; non-finite values
/// fail by name before the range checks (+inf noise or a -inf minimum would
/// pass them).
void validate(const SineSignalParams& params);
void validate(const GaussMarkovSignalModel::Params& params);

/// Factory signature used by scenario builders: user index -> signal model.
using SignalModelFactory =
    std::unique_ptr<SignalModel> (*)(std::size_t user, const Rng& scenario_rng);

}  // namespace jstream
