#include "radio/signal_model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

ConstantSignalModel::ConstantSignalModel(double dbm) : dbm_(dbm) {
  require(dbm <= 0.0, "RSSI must be non-positive dBm");
}

double ConstantSignalModel::signal_dbm(std::int64_t /*slot*/) { return dbm_; }

void validate(const SineSignalParams& params) {
  require(std::isfinite(params.min_dbm), "sine signal minimum must be finite");
  require(std::isfinite(params.max_dbm), "sine signal maximum must be finite");
  require(std::isfinite(params.noise_stddev_db), "sine noise stddev must be finite");
  require(params.min_dbm < params.max_dbm, "sine signal range is empty");
  require(params.period_slots > 0.0, "sine period must be positive");
  require(params.noise_stddev_db >= 0.0, "noise stddev must be non-negative");
}

SineSignalModel::SineSignalModel(SineSignalParams params, Rng rng)
    : params_(params), rng_(rng) {
  validate(params_);
  last_value_ = 0.5 * (params_.min_dbm + params_.max_dbm);
}

double SineSignalModel::signal_dbm(std::int64_t slot) {
  require(slot >= 0, "slot must be non-negative");
  // Slots must be visited in order for noise reproducibility: a random stream
  // has no random access. Repeated queries for the same slot are allowed.
  if (slot < next_slot_ - 1) {
    throw Error("SineSignalModel queried out of order");
  }
  if (slot == next_slot_ - 1) return last_value_;
  for (; next_slot_ <= slot; ++next_slot_) {
    const double mid = 0.5 * (params_.min_dbm + params_.max_dbm);
    const double amplitude = 0.5 * (params_.max_dbm - params_.min_dbm);
    const double angle = 2.0 * std::numbers::pi *
                             as_double(next_slot_) / params_.period_slots +
                         params_.phase_radians;
    const double noise =
        params_.noise_stddev_db > 0.0 ? rng_.gaussian(0.0, params_.noise_stddev_db) : 0.0;
    last_value_ = std::clamp(mid + amplitude * std::sin(angle) + noise, params_.min_dbm,
                             params_.max_dbm);
  }
  return last_value_;
}

TraceSignalModel::TraceSignalModel(std::vector<double> trace_dbm)
    : trace_(std::move(trace_dbm)) {
  require(!trace_.empty(), "signal trace must not be empty");
}

double TraceSignalModel::signal_dbm(std::int64_t slot) {
  require(slot >= 0, "slot must be non-negative");
  return trace_[checked_size(slot) % trace_.size()];
}

void validate(const GaussMarkovSignalModel::Params& params) {
  require(std::isfinite(params.mean_dbm), "Gauss-Markov mean must be finite");
  require(std::isfinite(params.noise_stddev_db), "Gauss-Markov noise stddev must be finite");
  require(std::isfinite(params.min_dbm), "Gauss-Markov signal minimum must be finite");
  require(std::isfinite(params.max_dbm), "Gauss-Markov signal maximum must be finite");
  require(params.rho >= 0.0 && params.rho < 1.0, "rho must be in [0,1)");
  require(params.min_dbm < params.max_dbm, "signal range is empty");
}

GaussMarkovSignalModel::GaussMarkovSignalModel(Params params, Rng rng)
    : params_(params), rng_(rng), value_(params.mean_dbm) {
  validate(params_);
}

double GaussMarkovSignalModel::signal_dbm(std::int64_t slot) {
  require(slot >= 0, "slot must be non-negative");
  if (slot < next_slot_ - 1) {
    throw Error("GaussMarkovSignalModel queried out of order");
  }
  if (slot == next_slot_ - 1) return value_;
  for (; next_slot_ <= slot; ++next_slot_) {
    const double noise = rng_.gaussian(0.0, params_.noise_stddev_db);
    value_ = params_.mean_dbm + params_.rho * (value_ - params_.mean_dbm) + noise;
    value_ = std::clamp(value_, params_.min_dbm, params_.max_dbm);
  }
  return value_;
}

}  // namespace jstream
