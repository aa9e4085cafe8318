// Tests for the battery extensions: ultracapacitor, HESS power split, and
// pack thermal model with Arrhenius fade.
#include <gtest/gtest.h>

#include <cmath>

#include "battery/hess.hpp"
#include "battery/thermal_model.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace evc::bat {
namespace {

// --- Ultracapacitor ---

TEST(Ultracap, EnergyMatchesHalfCVSquared) {
  UltracapParams p;
  Ultracapacitor ucap(p, 100.0);
  EXPECT_NEAR(ucap.stored_energy_j(), 0.5 * p.capacitance_f * 100.0 * 100.0,
              1e-9);
  EXPECT_NEAR(ucap.soc(), (100.0 - 62.5) / 62.5, 1e-12);
}

TEST(Ultracap, DischargeDropsVoltageChargeRaisesIt) {
  Ultracapacitor ucap(UltracapParams{}, 100.0);
  ucap.step(5e3, 1.0);
  const double after_discharge = ucap.voltage();
  EXPECT_LT(after_discharge, 100.0);
  ucap.step(-5e3, 1.0);
  EXPECT_GT(ucap.voltage(), after_discharge);
}

TEST(Ultracap, EsrDissipatesEnergy) {
  // Round trip (discharge then charge the same terminal energy) must end
  // below the starting voltage: the ESR ate the difference.
  Ultracapacitor ucap(UltracapParams{}, 100.0);
  // Stay well inside the voltage window so no clamp skews the balance.
  for (int i = 0; i < 15; ++i) ucap.step(10e3, 1.0);
  EXPECT_GT(ucap.voltage(), UltracapParams{}.min_voltage_v + 5.0);
  for (int i = 0; i < 15; ++i) ucap.step(-10e3, 1.0);
  EXPECT_LT(ucap.voltage(), 100.0 - 0.01);
}

TEST(Ultracap, RespectsVoltageWindow) {
  UltracapParams p;
  Ultracapacitor ucap(p, 70.0);
  for (int i = 0; i < 500; ++i) ucap.step(50e3, 1.0);  // drain hard
  EXPECT_GE(ucap.voltage(), p.min_voltage_v - 1e-9);
  EXPECT_NEAR(ucap.soc(), 0.0, 1e-6);
  for (int i = 0; i < 500; ++i) ucap.step(-50e3, 1.0);  // overcharge hard
  EXPECT_LE(ucap.voltage(), p.max_voltage_v + 1e-9);
  EXPECT_NEAR(ucap.soc(), 1.0, 1e-6);
}

TEST(Ultracap, EnvelopeReportsZeroAtWindowEdges) {
  UltracapParams p;
  Ultracapacitor empty(p, p.min_voltage_v);
  EXPECT_DOUBLE_EQ(empty.max_discharge_power_w(), 0.0);
  EXPECT_GT(empty.max_charge_power_w(), 0.0);
  Ultracapacitor full(p, p.max_voltage_v);
  EXPECT_DOUBLE_EQ(full.max_charge_power_w(), 0.0);
  EXPECT_GT(full.max_discharge_power_w(), 0.0);
}

TEST(Ultracap, RejectsBadConfig) {
  UltracapParams p;
  p.min_voltage_v = 200.0;  // above max
  EXPECT_THROW(Ultracapacitor(p, 100.0), std::invalid_argument);
  EXPECT_THROW(Ultracapacitor(UltracapParams{}, 10.0),
               std::invalid_argument);  // below window
}

// --- HESS ---

TEST(Hess, UcapAbsorbsTransientsBatteryCarriesBase) {
  Hess hess(leaf_24kwh_params(), BmsLimits{}, UltracapParams{}, HessPolicy{},
            90.0);
  // Constant base load with a superimposed square wave.
  RunningStats battery_power;
  for (int t = 0; t < 600; ++t) {
    const double load = 10e3 + ((t / 5) % 2 ? 8e3 : -8e3);
    const HessStep s = hess.apply_power(load, 1.0);
    EXPECT_NEAR(s.served_power_w, load, 1.0);
    if (t > 60) battery_power.add(s.battery_power_w);
  }
  // The battery's share varies far less than the ±8 kW load swing.
  EXPECT_LT(battery_power.stddev(), 4e3);
}

TEST(Hess, ReducesBatterySohFadeOnPeakyLoads) {
  // The point of the HESS: same served energy, less battery stress.
  const auto battery_only = [] {
    Bms bms(leaf_24kwh_params(), BmsLimits{}, 90.0);
    for (int t = 0; t < 1200; ++t)
      bms.apply_power((t / 10) % 2 ? 24e3 : 0.0, 1.0);
    return bms.cycle_delta_soh();
  }();
  const auto with_hess = [] {
    Hess hess(leaf_24kwh_params(), BmsLimits{}, UltracapParams{},
              HessPolicy{}, 90.0);
    for (int t = 0; t < 1200; ++t)
      hess.apply_power((t / 10) % 2 ? 24e3 : 0.0, 1.0);
    return hess.cycle_delta_soh();
  }();
  EXPECT_LT(with_hess, battery_only);
}

TEST(Hess, UcapSocReturnsTowardTarget) {
  HessPolicy policy;
  Hess hess(leaf_24kwh_params(), BmsLimits{}, UltracapParams{}, policy, 90.0);
  // Establish a calm baseline so the load filter settles …
  for (int t = 0; t < 120; ++t) hess.apply_power(5e3, 1.0);
  // … then a big transient drains the ucap.
  for (int t = 0; t < 20; ++t) hess.apply_power(40e3, 1.0);
  const double drained = hess.ultracap().soc();
  EXPECT_LT(drained, policy.ucap_soc_target);
  // … and a calm stretch restores it.
  for (int t = 0; t < 600; ++t) hess.apply_power(5e3, 1.0);
  EXPECT_GT(hess.ultracap().soc(), drained + 0.1);
}

TEST(Hess, StartCycleResetsState) {
  Hess hess(leaf_24kwh_params(), BmsLimits{}, UltracapParams{}, HessPolicy{},
            90.0);
  for (int t = 0; t < 50; ++t) hess.apply_power(30e3, 1.0);
  hess.start_cycle(85.0);
  EXPECT_DOUBLE_EQ(hess.battery_soc_percent(), 85.0);
  EXPECT_NEAR(hess.ultracap().soc(), HessPolicy{}.ucap_soc_target, 1e-9);
}

TEST(Hess, RejectsBadPolicy) {
  HessPolicy policy;
  policy.ucap_soc_target = 1.5;
  EXPECT_THROW(Hess(leaf_24kwh_params(), BmsLimits{}, UltracapParams{},
                    policy, 90.0),
               std::invalid_argument);
}

// --- Battery thermal ---

TEST(BatteryThermal, HeatsUnderLoadCoolsAtRest) {
  BatteryThermalModel thermal(BatteryThermalParams{}, 25.0);
  for (int i = 0; i < 600; ++i) thermal.step(150.0, 0.1, 25.0, 1.0);
  const double hot = thermal.temperature_c();
  EXPECT_GT(hot, 26.0);  // 2.25 kW of Joule heat warms the pack
  // Pack thermal time constant is C/UA ≈ 1.7 h; cool for ~5τ.
  for (int i = 0; i < 3600; ++i) thermal.step(0.0, 0.1, 25.0, 10.0);
  EXPECT_NEAR(thermal.temperature_c(), 25.0, 0.05);
}

TEST(BatteryThermal, EquilibriumMatchesAnalytic) {
  BatteryThermalParams p;
  BatteryThermalModel thermal(p, 25.0);
  const double i = 100.0, r = 0.1, amb = 20.0;
  for (int k = 0; k < 100000; ++k) thermal.step(i, r, amb, 10.0);
  EXPECT_NEAR(thermal.temperature_c(), amb + i * i * r / p.ua_w_per_k, 0.01);
}

TEST(BatteryThermal, ArrheniusDoublesNearThirteenDegrees) {
  BatteryThermalModel thermal(BatteryThermalParams{}, 25.0);
  EXPECT_NEAR(thermal.fade_acceleration(25.0), 1.0, 1e-12);
  EXPECT_NEAR(thermal.fade_acceleration(38.0), 2.0, 0.15);
  EXPECT_LT(thermal.fade_acceleration(10.0), 0.55);
}

TEST(BatteryThermal, TemperatureAwareSohScalesFade) {
  const BatteryParams params = leaf_24kwh_params();
  SohModel soh(params);
  BatteryThermalModel thermal(BatteryThermalParams{}, 25.0);
  const CycleStress stress{1.5, 85.0};
  const double base = soh.delta_soh(stress);
  EXPECT_NEAR(delta_soh_at_temperature(soh, thermal, stress, 25.0), base,
              1e-12);
  EXPECT_GT(delta_soh_at_temperature(soh, thermal, stress, 40.0), base);
  EXPECT_LT(delta_soh_at_temperature(soh, thermal, stress, 5.0), base);
}

}  // namespace
}  // namespace evc::bat
