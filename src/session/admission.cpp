#include "session/admission.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace jstream {

namespace {

class AcceptAllAdmission final : public AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "accept-all"; }
  [[nodiscard]] bool admit(const AdmissionSnapshot&) override { return true; }
};

class ThresholdAdmission final : public AdmissionController {
 public:
  explicit ThresholdAdmission(ThresholdAdmissionConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "threshold"; }

  [[nodiscard]] bool admit(const AdmissionSnapshot& snapshot) override {
    // Predicted per-user capacity: with this arrival admitted, every active
    // session's content rate (approximated by the mean, with the arrival's
    // own rate folded in) must fit the cell bound with headroom.
    const auto active = as_double(snapshot.active_sessions);
    const double mean_bitrate =
        (active * snapshot.mean_bitrate_kbps + snapshot.offered_bitrate_kbps) /
        (active + 1.0);
    const double demand = (active + 1.0) * mean_bitrate * config_.capacity_headroom;
    if (demand > snapshot.cell_capacity_kbps) return false;
    // Backlog test: a cell whose Eq. 16 queues already accumulated
    // rebuffering pressure must drain before taking on more work.
    return snapshot.mean_virtual_queue_s <= config_.max_mean_queue_s;
  }

 private:
  ThresholdAdmissionConfig config_;
};

}  // namespace

void validate(const AdmissionConfig& config) {
  switch (config.kind) {
    case AdmissionKind::kAcceptAll:
      return;
    case AdmissionKind::kThreshold:
      // Finiteness first: +inf passes the range checks below and then
      // rejects every arrival; NaN fails them, but under a range message.
      require(std::isfinite(config.threshold.capacity_headroom),
              "admission capacity headroom must be finite");
      require(std::isfinite(config.threshold.max_mean_queue_s),
              "admission queue bound must be finite");
      require(config.threshold.capacity_headroom > 0.0,
              "admission capacity headroom must be positive");
      require(config.threshold.max_mean_queue_s >= 0.0,
              "admission queue bound must be non-negative");
      return;
  }
  throw Error("unknown admission kind");
}

std::unique_ptr<AdmissionController> make_accept_all_admission() {
  return std::make_unique<AcceptAllAdmission>();
}

std::unique_ptr<AdmissionController> make_threshold_admission(
    ThresholdAdmissionConfig config) {
  return std::make_unique<ThresholdAdmission>(config);
}

std::unique_ptr<AdmissionController> make_admission_controller(
    const AdmissionConfig& config) {
  validate(config);
  switch (config.kind) {
    case AdmissionKind::kAcceptAll:
      return make_accept_all_admission();
    case AdmissionKind::kThreshold:
      return make_threshold_admission(config.threshold);
  }
  throw Error("unknown admission kind");
}

}  // namespace jstream
