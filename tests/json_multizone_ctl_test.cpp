// Tests for the JSON writer, metrics export, and the extended drive
// cycles.
#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics_json.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace evc {
namespace {

// --- JsonWriter ---

TEST(Json, ObjectsArraysAndEscaping) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("a \"quoted\"\nline");
  json.key("xs");
  json.begin_array().value(1.5).value(2L).value(true).end_array();
  json.key("nested");
  json.begin_object().key("k").value("v").end_object();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"a \\\"quoted\\\"\\nline\",\"xs\":[1.5,2,true],"
            "\"nested\":{\"k\":\"v\"}}");
}

TEST(Json, NonFiniteBecomesNull) {
  JsonWriter json;
  json.begin_array().value(std::nan("")).value(1.0 / 0.0).end_array();
  EXPECT_EQ(json.str(), "[null,null]");
}

TEST(Json, MisuseThrows) {
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.str(), std::logic_error);  // unclosed
  }
  {
    JsonWriter json;
    EXPECT_THROW(json.end_object(), std::invalid_argument);
  }
  {
    JsonWriter json;
    json.begin_object();
    json.key("a");
    EXPECT_THROW(json.key("b"), std::invalid_argument);  // two keys
  }
}

TEST(Json, RoundTripsNumbersExactly) {
  JsonWriter json;
  json.begin_array().value(0.1).value(1.0 / 3.0).end_array();
  const std::string s = json.str();
  double a = 0, b = 0;
  ASSERT_EQ(std::sscanf(s.c_str(), "[%lf,%lf]", &a, &b), 2);
  EXPECT_EQ(a, 0.1);
  EXPECT_EQ(b, 1.0 / 3.0);
}

TEST(MetricsJson, ExportsAllFields) {
  core::TripMetrics m;
  m.duration_s = 100.0;
  m.avg_hvac_power_w = 1250.0;
  m.delta_soh_percent = 0.0176;
  const std::string s = core::to_json(m);
  EXPECT_NE(s.find("\"avg_hvac_power_w\":1250"), std::string::npos);
  EXPECT_NE(s.find("\"delta_soh_percent\":0.0176"), std::string::npos);
  EXPECT_NE(s.find("\"comfort\":{"), std::string::npos);

  std::vector<core::ControllerRun> runs{{"On/Off", m}, {"MPC", m}};
  const std::string arr = core::to_json(runs);
  EXPECT_EQ(arr.front(), '[');
  EXPECT_NE(arr.find("\"controller\":\"On/Off\""), std::string::npos);
  EXPECT_NE(arr.find("\"controller\":\"MPC\""), std::string::npos);
}

// --- Extended cycles ---

class ExtendedCycleCheck
    : public ::testing::TestWithParam<drive::StandardCycle> {};

TEST_P(ExtendedCycleCheck, MatchesPublishedStatistics) {
  const auto cycle = GetParam();
  const auto ref = drive::cycle_reference(cycle);
  const auto p = drive::make_cycle_profile(cycle, 25.0);
  EXPECT_NEAR(p.duration(), ref.duration_s, 20.0) << drive::cycle_name(cycle);
  EXPECT_NEAR(p.total_distance_m() / 1000.0, ref.distance_km,
              0.10 * ref.distance_km)
      << drive::cycle_name(cycle);
  EXPECT_NEAR(units::mps_to_kmh(p.max_speed_mps()), ref.max_speed_kmh, 2.0)
      << drive::cycle_name(cycle);
}

INSTANTIATE_TEST_SUITE_P(Extended, ExtendedCycleCheck,
                         ::testing::ValuesIn(drive::extended_cycles()),
                         [](const auto& suite_info) {
                           return drive::cycle_name(suite_info.param);
                         });

TEST(ExtendedCycles, HwfetHasNoIntermediateStops) {
  const auto p = drive::make_cycle_profile(drive::StandardCycle::kHwfet, 25.0);
  // Highway cycle: once rolling, never back to rest until the end.
  std::size_t rolling_start = 0;
  while (p[rolling_start].speed_mps < 1.0) ++rolling_start;
  for (std::size_t i = rolling_start; i + 40 < p.size(); ++i)
    EXPECT_GT(p[i].speed_mps, 1.0) << "stop at " << i;
}

TEST(ExtendedCycles, Jc08HasSubstantialIdleShare) {
  const auto p = drive::make_cycle_profile(drive::StandardCycle::kJc08, 25.0);
  std::size_t idle = 0;
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p[i].speed_mps < 0.1) ++idle;
  const double share = static_cast<double>(idle) / p.size();
  EXPECT_GT(share, 0.20);
  EXPECT_LT(share, 0.45);
}

}  // namespace
}  // namespace evc
