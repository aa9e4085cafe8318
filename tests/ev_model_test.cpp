// Targeted tests for the integrated EV model and extra property sweeps
// (closed-loop comfort grids for the reactive controllers).
#include <gtest/gtest.h>

#include <tuple>

#include "core/ev_model.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"

namespace evc::core {
namespace {

drive::DriveSample cruise_sample(double speed_mps, double ambient_c) {
  drive::DriveSample s;
  s.speed_mps = speed_mps;
  s.ambient_c = ambient_c;
  return s;
}

hvac::HvacInputs idle_hvac(double to, double tz) {
  hvac::HvacInputs in;
  in.recirculation = 0.5;
  const double tm = 0.5 * to + 0.5 * tz;
  in.air_flow_kg_s = 0.02;
  in.coil_temp_c = tm;
  in.supply_temp_c = tm;
  return in;
}

TEST(EvModel, StepAccountsAllConsumers) {
  EvModel ev(EvParams{}, 90.0, 24.0);
  const EvStep step =
      ev.step(cruise_sample(20.0, 24.0), idle_hvac(24.0, 24.0), 1.0);
  EXPECT_GT(step.motor_power_w, 5e3);  // 72 km/h cruise
  EXPECT_GT(step.hvac.power.fan_w, 0.0);
  EXPECT_DOUBLE_EQ(step.accessory_power_w,
                   EvParams{}.vehicle.accessory_power_w);
  EXPECT_NEAR(step.total_power_w,
              step.motor_power_w + step.hvac.power.total() +
                  step.accessory_power_w,
              1e-9);
  EXPECT_LT(step.soc_percent, 90.0);
}

TEST(EvModel, RegenChargesWhenBraking) {
  EvModel ev(EvParams{}, 60.0, 24.0);
  drive::DriveSample braking = cruise_sample(25.0, 24.0);
  braking.accel_mps2 = -2.5;
  const EvStep step = ev.step(braking, idle_hvac(24.0, 24.0), 1.0);
  EXPECT_LT(step.motor_power_w, 0.0);
  EXPECT_GT(step.soc_percent, 60.0 - 1e-9);
}

TEST(EvModel, ResetRestoresCycleState) {
  EvModel ev(EvParams{}, 90.0, 24.0);
  for (int i = 0; i < 60; ++i)
    ev.step(cruise_sample(25.0, 35.0), idle_hvac(35.0, ev.cabin_temp_c()),
            1.0);
  EXPECT_LT(ev.soc_percent(), 90.0);
  ev.reset(85.0, 22.0);
  EXPECT_DOUBLE_EQ(ev.soc_percent(), 85.0);
  EXPECT_DOUBLE_EQ(ev.cabin_temp_c(), 22.0);
  EXPECT_EQ(ev.bms().soc_trace().size(), 1u);
}

TEST(EvModel, CabinDriftsWithIdleHvacInHeat) {
  EvModel ev(EvParams{}, 90.0, 24.0);
  for (int i = 0; i < 600; ++i)
    ev.step(cruise_sample(15.0, 40.0), idle_hvac(40.0, ev.cabin_temp_c()),
            1.0);
  EXPECT_GT(ev.cabin_temp_c(), 28.0);  // minimal ventilation can't hold 24
}

// --- Closed-loop comfort grid for the reactive controllers ---

using ComfortGridParam = std::tuple<drive::StandardCycle, double>;

class ReactiveComfortGrid
    : public ::testing::TestWithParam<ComfortGridParam> {};

TEST_P(ReactiveComfortGrid, FuzzyHoldsComfortZone) {
  const auto [cycle, ambient] = GetParam();
  const EvParams params;
  ClimateSimulation sim(params);
  auto fuzzy = make_fuzzy_controller(params);
  SimulationOptions opts;
  opts.record_traces = false;
  const auto profile = drive::make_cycle_profile(cycle, ambient);
  const auto result = sim.run(*fuzzy, profile, opts);
  EXPECT_LT(result.metrics.comfort.fraction_outside, 0.06)
      << drive::cycle_name(cycle) << " @ " << ambient;
  // PPD sanity: a regulated cabin keeps most occupants satisfied.
  EXPECT_LT(result.metrics.comfort.avg_ppd_percent, 20.0);
}

TEST_P(ReactiveComfortGrid, OnOffStaysNearComfortZone) {
  const auto [cycle, ambient] = GetParam();
  const EvParams params;
  ClimateSimulation sim(params);
  auto onoff = make_onoff_controller(params);
  SimulationOptions opts;
  opts.record_traces = false;
  const auto profile = drive::make_cycle_profile(cycle, ambient);
  const auto result = sim.run(*onoff, profile, opts);
  // Bang-bang rides the deadband edges; allow brief excursions.
  EXPECT_LT(result.metrics.comfort.max_abs_error_c, 3.0)
      << drive::cycle_name(cycle) << " @ " << ambient;
}

INSTANTIATE_TEST_SUITE_P(
    CycleAmbient, ReactiveComfortGrid,
    ::testing::Combine(::testing::Values(drive::StandardCycle::kUdds,
                                         drive::StandardCycle::kUs06,
                                         drive::StandardCycle::kWltp),
                       ::testing::Values(0.0, 21.0, 38.0)),
    [](const auto& suite_info) {
      return drive::cycle_name(std::get<0>(suite_info.param)) + "_" +
             std::to_string(static_cast<int>(std::get<1>(suite_info.param))) + "C";
    });

}  // namespace
}  // namespace evc::core
