#include "radio/radio_profile.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"

namespace jstream {
namespace {

TEST(RadioProfile, Paper3gMatchesSectionVI) {
  const RadioProfile p = paper_3g_profile();
  EXPECT_EQ(p.kind, RrcKind::kThreeState3G);
  EXPECT_DOUBLE_EQ(p.p_dch_mw, 732.83);
  EXPECT_DOUBLE_EQ(p.p_fach_mw, 388.88);
  EXPECT_DOUBLE_EQ(p.t1_s, 3.29);
  EXPECT_DOUBLE_EQ(p.t2_s, 4.02);
  EXPECT_FALSE(p.continuous_tail);
}

TEST(RadioProfile, DerivedQuantities) {
  const RadioProfile p = paper_3g_profile();
  EXPECT_NEAR(p.tail_duration_s(), 7.31, 1e-9);
  EXPECT_NEAR(p.max_tail_energy_mj(), 732.83 * 3.29 + 388.88 * 4.02, 1e-9);
}

TEST(RadioProfile, LteIsTwoState) {
  const RadioProfile p = lte_profile();
  EXPECT_EQ(p.kind, RrcKind::kTwoStateLte);
  EXPECT_DOUBLE_EQ(p.t2_s, 0.0);
  EXPECT_GT(p.p_dch_mw, 0.0);
  EXPECT_NO_THROW(validate(p));
}

TEST(RadioProfile, ValidateRejectsNegativeParameters) {
  RadioProfile p = paper_3g_profile();
  p.p_dch_mw = -1.0;
  EXPECT_THROW(validate(p), Error);
  p = paper_3g_profile();
  p.t1_s = -0.5;
  EXPECT_THROW(validate(p), Error);
}

TEST(RadioProfile, ValidateRejectsNonFiniteFieldsByName) {
  // +inf passes every range check below the finiteness checks, and NaN fails
  // them under a range check's name; each must get its own named error.
  struct Field {
    double RadioProfile::*member;
    const char* message;
  };
  const Field fields[] = {{&RadioProfile::p_dch_mw, "P_DCH must be finite"},
                          {&RadioProfile::p_fach_mw, "P_FACH must be finite"},
                          {&RadioProfile::t1_s, "T1 must be finite"},
                          {&RadioProfile::t2_s, "T2 must be finite"}};
  for (const Field& field : fields) {
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      RadioProfile p = paper_3g_profile();
      p.*field.member = bad;
      std::string error;
      try {
        validate(p);
      } catch (const Error& e) {
        error = e.what();
      }
      EXPECT_NE(error.find(field.message), std::string::npos)
          << field.message << ", value " << bad << ": got \"" << error << "\"";
    }
  }
}

TEST(RadioProfile, ValidateRejectsLteWithFachTimer) {
  RadioProfile p = lte_profile();
  p.t2_s = 2.0;
  EXPECT_THROW(validate(p), Error);
}

}  // namespace
}  // namespace jstream
