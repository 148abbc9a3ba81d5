// Admission controllers: the accept-all baseline and the capacity/backlog
// threshold policy as pure functions of the per-arrival snapshot.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "session/admission.hpp"
#include "test_helpers.hpp"

namespace jstream {
namespace {

AdmissionSnapshot snapshot(std::size_t active, double mean_bitrate,
                           double capacity, double mean_queue = 0.0,
                           double offered_bitrate = 400.0) {
  AdmissionSnapshot s;
  s.active_sessions = active;
  s.capacity_slots = 100;
  s.cell_capacity_kbps = capacity;
  s.mean_bitrate_kbps = mean_bitrate;
  s.mean_virtual_queue_s = mean_queue;
  s.offered_bitrate_kbps = offered_bitrate;
  return s;
}

TEST(Admission, AcceptAllAdmitsEverything) {
  const auto controller = make_accept_all_admission();
  EXPECT_EQ(controller->name(), "accept-all");
  EXPECT_TRUE(controller->admit(snapshot(0, 0.0, 1.0)));
  EXPECT_TRUE(controller->admit(snapshot(99, 5000.0, 1.0, 1e9)));
}

TEST(Admission, ThresholdAdmitsWhileCapacityHolds) {
  ThresholdAdmissionConfig config;
  config.capacity_headroom = 1.0;
  config.max_mean_queue_s = 1e9;
  const auto controller = make_threshold_admission(config);
  EXPECT_EQ(controller->name(), "threshold");

  // Idle cell, one 400 KB/s arrival against 20 MB/s: trivially admitted.
  EXPECT_TRUE(controller->admit(snapshot(0, 0.0, 20000.0)));
  // 10 active at 400 + this arrival = 4400 total demand; fits 20000.
  EXPECT_TRUE(controller->admit(snapshot(10, 400.0, 20000.0)));
  // 49 active at 400 + arrival = 20000 exactly: not above the bound, admit.
  EXPECT_TRUE(controller->admit(snapshot(49, 400.0, 20000.0)));
  // 50 active: total 20400 > 20000, reject.
  EXPECT_FALSE(controller->admit(snapshot(50, 400.0, 20000.0)));
}

TEST(Admission, ThresholdHeadroomTightensTheBound) {
  ThresholdAdmissionConfig config;
  config.capacity_headroom = 2.0;
  const auto controller = make_threshold_admission(config);
  // 24 active at 400 + arrival = 10000 demand; x2 headroom = 20000, admit.
  EXPECT_TRUE(controller->admit(snapshot(24, 400.0, 20000.0)));
  // 25 active: 10400 x 2 = 20800 > 20000, reject — headroom halves capacity.
  EXPECT_FALSE(controller->admit(snapshot(25, 400.0, 20000.0)));
}

TEST(Admission, ThresholdRejectsOnBacklogPressure) {
  ThresholdAdmissionConfig config;
  config.capacity_headroom = 1.0;
  config.max_mean_queue_s = 10.0;
  const auto controller = make_threshold_admission(config);
  // Plenty of capacity, but the Eq. 16 queues are drowning: reject.
  EXPECT_TRUE(controller->admit(snapshot(2, 400.0, 20000.0, 10.0)));
  EXPECT_FALSE(controller->admit(snapshot(2, 400.0, 20000.0, 10.1)));
}

TEST(Admission, FactoryDispatchesOnKind) {
  AdmissionConfig accept;
  EXPECT_EQ(make_admission_controller(accept)->name(), "accept-all");
  AdmissionConfig threshold;
  threshold.kind = AdmissionKind::kThreshold;
  EXPECT_EQ(make_admission_controller(threshold)->name(), "threshold");
}

TEST(Admission, ValidateRejectsNonsense) {
  AdmissionConfig config;
  config.kind = AdmissionKind::kThreshold;
  config.threshold.capacity_headroom = 0.0;
  EXPECT_THROW(validate(config), Error);
  config.threshold.capacity_headroom = 1.1;
  config.threshold.max_mean_queue_s = -1.0;
  EXPECT_THROW(validate(config), Error);
  config.threshold.max_mean_queue_s = 0.0;
  EXPECT_NO_THROW(validate(config));
}

TEST(Admission, ValidateRejectsNonFiniteThresholdsByName) {
  // +inf headroom would pass the range check and then reject every arrival.
  struct Field {
    double ThresholdAdmissionConfig::*member;
    const char* message;
  };
  const Field fields[] = {
      {&ThresholdAdmissionConfig::capacity_headroom,
       "admission capacity headroom must be finite"},
      {&ThresholdAdmissionConfig::max_mean_queue_s, "admission queue bound must be finite"}};
  for (const Field& field : fields) {
    for (const double bad : testing::kNonFinite) {
      AdmissionConfig config;
      config.kind = AdmissionKind::kThreshold;
      config.threshold.*field.member = bad;
      const std::string error = testing::error_message([&] { validate(config); });
      EXPECT_NE(error.find(field.message), std::string::npos)
          << field.message << ", value " << bad << ": got \"" << error << "\"";
      EXPECT_THROW((void)make_admission_controller(config), Error);
    }
  }
}

}  // namespace
}  // namespace jstream
