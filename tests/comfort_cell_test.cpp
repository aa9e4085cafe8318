// Tests for the Fanger PMV/PPD comfort model and the comfort band derived
// from it.
#include <gtest/gtest.h>

#include <cmath>

#include "hvac/comfort.hpp"

namespace evc {
namespace {

// --- PMV / PPD ---

TEST(Comfort, NeutralNearStandardComfortPoint) {
  // ~24.5 °C, 50 % RH, still air, seated driver, light clothing is close
  // to thermally neutral (|PMV| < 0.5 — inside ISO comfort class B).
  hvac::ComfortConditions c;
  c.air_temp_c = 24.5;
  c.radiant_temp_c = 24.5;
  EXPECT_LT(std::abs(hvac::predicted_mean_vote(c)), 0.5);
}

TEST(Comfort, MonotoneInAirTemperature) {
  hvac::ComfortConditions c;
  double prev = -10.0;
  for (double t = 16.0; t <= 32.0; t += 2.0) {
    c.air_temp_c = t;
    c.radiant_temp_c = t;
    const double pmv = hvac::predicted_mean_vote(c);
    EXPECT_GT(pmv, prev) << "at " << t;
    prev = pmv;
  }
}

TEST(Comfort, ColdAndHotExtremesSaturateTheScale) {
  hvac::ComfortConditions c;
  c.air_temp_c = c.radiant_temp_c = 10.0;
  EXPECT_LT(hvac::predicted_mean_vote(c), -1.5);
  c.air_temp_c = c.radiant_temp_c = 36.0;
  EXPECT_GT(hvac::predicted_mean_vote(c), 1.5);
}

TEST(Comfort, AirMovementCoolsAndClothingWarms) {
  hvac::ComfortConditions base;
  base.air_temp_c = base.radiant_temp_c = 26.0;
  const double pmv0 = hvac::predicted_mean_vote(base);
  hvac::ComfortConditions windy = base;
  windy.air_velocity_m_s = 0.8;
  EXPECT_LT(hvac::predicted_mean_vote(windy), pmv0);
  hvac::ComfortConditions dressed = base;
  dressed.clothing_clo = 1.2;
  EXPECT_GT(hvac::predicted_mean_vote(dressed), pmv0);
}

TEST(Comfort, PpdShape) {
  EXPECT_NEAR(hvac::predicted_percentage_dissatisfied(0.0), 5.0, 1e-9);
  EXPECT_NEAR(hvac::predicted_percentage_dissatisfied(1.0), 26.1, 1.0);
  EXPECT_NEAR(hvac::predicted_percentage_dissatisfied(-1.0),
              hvac::predicted_percentage_dissatisfied(1.0), 1e-9);
  EXPECT_GT(hvac::predicted_percentage_dissatisfied(3.0), 95.0);
}

TEST(Comfort, DerivedBandCoversThePapersComfortZone) {
  // The paper's C2 band [22, 26] °C should sit inside (or near) the
  // |PMV| ≤ 0.5 band for a seated, lightly clothed driver.
  const hvac::ComfortBand band = hvac::comfort_band(hvac::ComfortConditions{});
  EXPECT_LT(band.low_c, 23.0);
  EXPECT_GT(band.high_c, 25.5);
  EXPECT_GT(band.high_c, band.low_c + 2.0);
  EXPECT_LT(band.high_c - band.low_c, 12.0);
}

TEST(Comfort, RejectsBadInputs) {
  hvac::ComfortConditions c;
  c.relative_humidity = 1.5;
  EXPECT_THROW(hvac::predicted_mean_vote(c), std::invalid_argument);
  c = hvac::ComfortConditions{};
  c.metabolic_rate_met = 0.0;
  EXPECT_THROW(hvac::predicted_mean_vote(c), std::invalid_argument);
}

}  // namespace
}  // namespace evc
