// Tests for the MPC formulation (variable packing, constraint functions,
// Jacobian correctness via finite differences) and the MPC controller.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/mpc_controller.hpp"
#include "core/mpc_formulation.hpp"
#include "util/random.hpp"

namespace evc::core {
namespace {

MpcWindowData make_window(std::size_t horizon, double power_kw = 8.0,
                          double to = 35.0) {
  MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = 25.0;
  w.initial_soc_percent = 88.0;
  w.fixed_power_kw.assign(horizon, power_kw);
  w.outside_temp_c.assign(horizon, to);
  return w;
}

MpcFormulation make_formulation(std::size_t horizon = 6) {
  return MpcFormulation(hvac::default_hvac_params(), bat::leaf_24kwh_params(),
                        MpcWeights{}, make_window(horizon));
}

TEST(MpcIndex, PackingIsDenseAndDisjoint) {
  const MpcIndex idx(5);
  EXPECT_EQ(idx.num_vars(), 57u);
  EXPECT_EQ(idx.num_eq(), 32u);
  EXPECT_EQ(idx.num_ineq(), 80u);
  std::vector<bool> seen(idx.num_vars(), false);
  auto mark = [&](std::size_t i) {
    ASSERT_LT(i, seen.size());
    EXPECT_FALSE(seen[i]) << "index " << i << " assigned twice";
    seen[i] = true;
  };
  for (std::size_t k = 0; k <= 5; ++k) mark(idx.x(k));
  for (std::size_t k = 0; k < 5; ++k) {
    mark(idx.ts(k));
    mark(idx.tc(k));
    mark(idx.dr(k));
    mark(idx.mz(k));
    mark(idx.tm(k));
    mark(idx.ph(k));
    mark(idx.pc(k));
    mark(idx.pf(k));
  }
  for (std::size_t k = 0; k <= 5; ++k) mark(idx.soc(k));
  for (std::size_t k = 0; k < 5; ++k) mark(idx.slack(k));
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(MpcIndex, RejectsOutOfHorizonAccess) {
  const MpcIndex idx(4);
  EXPECT_THROW(idx.x(5), std::invalid_argument);
  EXPECT_THROW(idx.ts(4), std::invalid_argument);
  EXPECT_THROW(idx.soc(6), std::invalid_argument);
}

TEST(MpcFormulation, ColdStartSatisfiesMostConstraints) {
  const MpcFormulation f = make_formulation();
  const num::Vector z = f.cold_start();
  // All equalities except (possibly) the cabin drift rows are satisfied.
  const num::Vector c = f.eq_constraints(z);
  // Mixer, coil, fan, SoC, and initial-condition rows are exactly zero.
  const std::size_t horizon = f.index().horizon();
  for (std::size_t k = 0; k < horizon; ++k) {
    EXPECT_NEAR(c[6 * k + 1], 0.0, 1e-12) << "mixer " << k;
    EXPECT_NEAR(c[6 * k + 2], 0.0, 1e-12) << "heater " << k;
    EXPECT_NEAR(c[6 * k + 3], 0.0, 1e-12) << "cooler " << k;
    EXPECT_NEAR(c[6 * k + 4], 0.0, 1e-12) << "fan " << k;
    EXPECT_NEAR(c[6 * k + 5], 0.0, 1e-12) << "soc " << k;
  }
  EXPECT_NEAR(c[6 * horizon], 0.0, 1e-12);
  EXPECT_NEAR(c[6 * horizon + 1], 0.0, 1e-12);
  // Inequalities hold at the cold start.
  const num::Vector slack = f.ineq_vector() - f.ineq_matrix() * z;
  for (std::size_t i = 0; i < slack.size(); ++i)
    EXPECT_GT(slack[i], -1e-9) << "ineq row " << i;
}

TEST(MpcFormulation, JacobianMatchesFiniteDifferences) {
  const MpcFormulation f = make_formulation(4);
  SplitMix64 rng(17);
  num::Vector z = f.cold_start();
  // Perturb to a generic (infeasible) point so all bilinear terms are live.
  for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-0.3, 0.3);

  num::Matrix jac;
  f.eq_jacobian(z, jac);
  const num::Vector c0 = f.eq_constraints(z);
  const double h = 1e-6;
  for (std::size_t j = 0; j < z.size(); ++j) {
    num::Vector zp = z;
    zp[j] += h;
    const num::Vector cp = f.eq_constraints(zp);
    for (std::size_t i = 0; i < c0.size(); ++i) {
      const double fd = (cp[i] - c0[i]) / h;
      EXPECT_NEAR(jac(i, j), fd, 1e-5)
          << "d c[" << i << "] / d z[" << j << "]";
    }
  }
}

TEST(MpcFormulation, CostGradientMatchesFiniteDifferences) {
  const MpcFormulation f = make_formulation(4);
  SplitMix64 rng(23);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-0.2, 0.2);
  const num::Vector g = f.cost_gradient(z);
  const double c0 = f.cost(z);
  const double h = 1e-6;
  for (std::size_t j = 0; j < z.size(); ++j) {
    num::Vector zp = z;
    zp[j] += h;
    EXPECT_NEAR(g[j], (f.cost(zp) - c0) / h, 1e-4) << "grad[" << j << "]";
  }
}

TEST(MpcFormulation, CostMatchesDenseProductBitForBit) {
  // cost() and cost_gradient() form H·z from H's nonzeros. On finite points
  // that must reproduce the dense 0.5·z·(H·z) + g·z and H·z + g bit for
  // bit, for each shape of H: the window-variance SoC block and the literal
  // SoC-reference diagonal.
  MpcWindowData referenced = make_window(12);
  referenced.soc_reference = 85.0;
  const MpcFormulation forms[] = {
      make_formulation(12),
      MpcFormulation(hvac::default_hvac_params(), bat::leaf_24kwh_params(),
                     MpcWeights{}, referenced)};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  SplitMix64 rng(97);
  for (const MpcFormulation& f : forms) {
    const num::Matrix h = f.cost_hessian(f.cold_start());
    // At the origin H·z vanishes, so the gradient there is g itself.
    const num::Vector g = f.cost_gradient(num::Vector(f.num_vars()));
    for (int trial = 0; trial < 20; ++trial) {
      num::Vector z = f.cold_start();
      for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-5, 5);
      const num::Vector hz = h * z;
      const double dense_cost = 0.5 * z.dot(hz) + g.dot(z);
      const num::Vector dense_grad = hz + g;
      EXPECT_EQ(bits(f.cost(z)), bits(dense_cost)) << "trial " << trial;
      const num::Vector grad = f.cost_gradient(z);
      ASSERT_EQ(grad.size(), dense_grad.size());
      for (std::size_t i = 0; i < grad.size(); ++i)
        EXPECT_EQ(bits(grad[i]), bits(dense_grad[i]))
            << "trial " << trial << " grad[" << i << "]";
    }
  }
}

TEST(MpcFormulation, CostHessianIsPsd) {
  const MpcFormulation f = make_formulation(5);
  const num::Matrix h = f.cost_hessian(f.cold_start());
  SplitMix64 rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    num::Vector v(h.rows());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.uniform(-1, 1);
    EXPECT_GE(v.dot(h * v), -1e-9);
  }
}

TEST(MpcFormulation, SocDeviationTermIsTranslationInvariant) {
  // Adding a constant to all SoC variables must not change the deviation
  // cost (it penalizes variance, not level).
  const MpcFormulation f = make_formulation(5);
  const MpcIndex& idx = f.index();
  num::Vector z = f.cold_start();
  const double c0 = f.cost(z);
  for (std::size_t k = 0; k <= idx.horizon(); ++k) z[idx.soc(k)] += 7.0;
  EXPECT_NEAR(f.cost(z), c0, 1e-8);
}

TEST(MpcFormulation, RejectsInconsistentWindow) {
  MpcWindowData w = make_window(6);
  w.outside_temp_c.resize(3);  // mismatched forecast lengths
  EXPECT_THROW(MpcFormulation(hvac::default_hvac_params(),
                              bat::leaf_24kwh_params(), MpcWeights{}, w),
               std::invalid_argument);
}

// --- Controller-level behaviour ---

ctl::ControlContext steady_context(double tz, double to, double power_w,
                                   std::size_t samples = 120) {
  ctl::ControlContext c;
  c.dt_s = 1.0;
  c.cabin_temp_c = tz;
  c.outside_temp_c = to;
  c.soc_percent = 88.0;
  c.motor_power_forecast_w.assign(samples, power_w);
  c.outside_temp_forecast_c.assign(samples, to);
  return c;
}

TEST(MpcController, ProducesPhysicalInputsAndPlans) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  const auto in = ctl.decide(steady_context(27.0, 38.0, 10e3));
  EXPECT_EQ(ctl.stats().plans, 1u);
  EXPECT_EQ(ctl.stats().failures, 0u);
  const hvac::HvacParams p = hvac::default_hvac_params();
  EXPECT_GE(in.air_flow_kg_s, p.min_air_flow_kg_s - 1e-6);
  EXPECT_LE(in.air_flow_kg_s, p.max_air_flow_kg_s + 1e-6);
  EXPECT_GE(in.recirculation, -1e-6);
  EXPECT_LE(in.recirculation, p.max_recirculation + 1e-6);
  // Hot cabin in hot ambient → the plan must cool (supply below cabin).
  EXPECT_LT(in.supply_temp_c, 27.0);
  // Planned SoC trajectory is populated and decreasing.
  ASSERT_FALSE(ctl.planned_soc().empty());
  EXPECT_LT(ctl.planned_soc().back(), ctl.planned_soc().front());
}

TEST(MpcController, WarmStartShiftsWorkingSetWithThePlan) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  const std::size_t horizon = ctl.options().horizon;
  MpcWindowData w = make_window(horizon, 10.0, 38.0);
  const auto formulation = [&] {
    return MpcFormulation(hvac::default_hvac_params(),
                          bat::leaf_24kwh_params(), ctl.options().weights, w);
  };
  // A fresh controller has no plan: it starts cold, with no working set.
  EXPECT_FALSE(ctl.warm_start(formulation()).active_ineq.has_value());

  auto c = steady_context(27.0, 38.0, 10e3);
  for (int i = 0; i < 3; ++i) {
    ctl.decide(c);
    c.time_s += ctl.options().step_s;
  }
  ASSERT_TRUE(ctl.last_solution().has_value());
  const num::Vector prev = *ctl.last_solution();
  const std::vector<std::size_t> set = ctl.last_working_set();
  ASSERT_FALSE(set.empty());

  const MpcIndex idx(horizon);
  const std::size_t rows = idx.num_ineq();
  const std::size_t per_stage = rows / horizon;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  // Measured state where the plan predicted it one step on: the primal
  // seed shifts, and row k·s + r of the working set (s rows per stage)
  // takes row (k+1)·s + r's membership; the last stage keeps its own.
  w.initial_cabin_temp_c = prev[idx.x(1)];
  w.initial_soc_percent = prev[idx.soc(1)];
  const MpcWarmStart shifted = ctl.warm_start(formulation());
  EXPECT_EQ(bits(shifted.x[idx.x(0)]), bits(prev[idx.x(1)]));
  std::vector<unsigned char> was_active(rows, 0);
  for (const std::size_t i : set) was_active[i] = 1;
  std::vector<std::size_t> expected_set;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t src = i + per_stage < rows ? i + per_stage : i;
    if (was_active[src] != 0) expected_set.push_back(i);
  }
  ASSERT_TRUE(shifted.active_ineq.has_value());
  EXPECT_EQ(*shifted.active_ineq, expected_set);

  // Measured state equal to the plan's own start: the plan is held, and
  // so is its working set.
  w.initial_cabin_temp_c = prev[idx.x(0)];
  w.initial_soc_percent = prev[idx.soc(0)];
  const MpcWarmStart held = ctl.warm_start(formulation());
  for (std::size_t i = 0; i < prev.size(); ++i)
    EXPECT_EQ(bits(held.x[i]), bits(prev[i])) << "var " << i;
  ASSERT_TRUE(held.active_ineq.has_value());
  EXPECT_EQ(*held.active_ineq, set);

  // A reset controller forgets the plan and starts cold again.
  ctl.reset();
  EXPECT_TRUE(ctl.last_working_set().empty());
  EXPECT_FALSE(ctl.warm_start(formulation()).active_ineq.has_value());
}

TEST(MpcController, HoldsInputBetweenPlanningInstants) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  auto c = steady_context(25.0, 35.0, 8e3);
  c.time_s = 0.0;
  const auto first = ctl.decide(c);
  c.time_s = 1.0;
  c.cabin_temp_c = 24.8;  // measurement changed, but no replan yet
  const auto held = ctl.decide(c);
  EXPECT_EQ(ctl.stats().plans, 1u);
  EXPECT_DOUBLE_EQ(held.supply_temp_c, first.supply_temp_c);
  c.time_s = 5.0;  // replanning instant
  ctl.decide(c);
  EXPECT_EQ(ctl.stats().plans, 2u);
}

TEST(MpcController, HeatsInColdAmbient) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  const auto in = ctl.decide(steady_context(22.5, -5.0, 8e3));
  EXPECT_EQ(ctl.stats().failures, 0u);
  EXPECT_GT(in.supply_temp_c, 23.0);  // supply warmer than the cabin
}

TEST(MpcController, PrefersRecirculationInExtremeHeat) {
  // Recirculating cabin air at 43 °C outside cuts the ventilation load; the
  // optimizer should discover a high damper setting.
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  const auto in = ctl.decide(steady_context(25.0, 43.0, 8e3));
  EXPECT_GT(in.recirculation, 0.5);
}

TEST(MpcController, ResetClearsPlanState) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  ctl.decide(steady_context(25.0, 35.0, 8e3));
  ctl.reset();
  EXPECT_EQ(ctl.stats().plans, 0u);
  EXPECT_TRUE(ctl.planned_soc().empty());
}

TEST(MpcController, EmptyForecastFallsBackGracefully) {
  MpcClimateController ctl(hvac::default_hvac_params(),
                           bat::leaf_24kwh_params());
  ctl::ControlContext c;
  c.cabin_temp_c = 26.0;
  c.outside_temp_c = 35.0;
  c.soc_percent = 80.0;
  // No forecast at all: the controller must still produce a usable input.
  const auto in = ctl.decide(c);
  EXPECT_GT(in.air_flow_kg_s, 0.0);
}

TEST(MpcController, DefaultPlansWithoutTheSecondOrderCorrection) {
  // The MPC's SQP runs without the correction (the paper gate's cheapest
  // accepted setting), while the solver's own default keeps it for the
  // curved manifolds it was built for (SqpCircle).
  const MpcOptions mpc;
  EXPECT_FALSE(mpc.sqp.second_order_correction);
  EXPECT_EQ(mpc.horizon, 6u);
  EXPECT_EQ(mpc.sqp.max_iterations, 4u);
  EXPECT_TRUE(opt::SqpOptions{}.second_order_correction);
}

TEST(MpcController, RejectsDegenerateOptions) {
  MpcOptions opts;
  opts.horizon = 1;
  EXPECT_THROW(MpcClimateController(hvac::default_hvac_params(),
                                    bat::leaf_24kwh_params(), opts),
               std::invalid_argument);
  opts = MpcOptions{};
  opts.step_s = 0.0;
  EXPECT_THROW(MpcClimateController(hvac::default_hvac_params(),
                                    bat::leaf_24kwh_params(), opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace evc::core

namespace evc::core {
namespace {

TEST(MpcFormulationNonlinearBattery, JacobianMatchesFiniteDifferences) {
  MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = 25.0;
  w.initial_soc_percent = 88.0;
  w.fixed_power_kw.assign(4, 8.0);
  w.outside_temp_c.assign(4, 35.0);
  w.nonlinear_battery = true;
  MpcFormulation f(hvac::default_hvac_params(), bat::leaf_24kwh_params(),
                   MpcWeights{}, w);
  SplitMix64 rng(41);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i) z[i] += rng.uniform(-0.3, 0.3);

  num::Matrix jac;
  f.eq_jacobian(z, jac);
  const num::Vector c0 = f.eq_constraints(z);
  const double h = 1e-6;
  for (std::size_t j = 0; j < z.size(); ++j) {
    num::Vector zp = z;
    zp[j] += h;
    const num::Vector cp = f.eq_constraints(zp);
    for (std::size_t i = 0; i < c0.size(); ++i)
      EXPECT_NEAR(jac(i, j), (cp[i] - c0[i]) / h, 1e-4)
          << "d c[" << i << "] / d z[" << j << "]";
  }
}

TEST(MpcFormulationNonlinearBattery, HighPowerDrainsSuperlinearly) {
  const auto soc_drop_for = [](double fixed_kw) {
    MpcWindowData w;
    w.dt_s = 5.0;
    w.initial_cabin_temp_c = 24.0;
    w.initial_soc_percent = 90.0;
    w.fixed_power_kw.assign(2, fixed_kw);
    w.outside_temp_c.assign(2, 24.0);
    w.nonlinear_battery = true;
    MpcFormulation f(hvac::default_hvac_params(), bat::leaf_24kwh_params(),
                     MpcWeights{}, w);
    // Read the drain straight off the battery equality at the cold start
    // (coils idle): residual c = soc' − soc + κΔt·g(P) with soc' = soc.
    const num::Vector z = f.cold_start();
    const num::Vector c = f.eq_constraints(z);
    return c[5];  // battery row of step 0 (6 rows per step, index 5)
  };
  // Doubling the power more than doubles the drain residual.
  const double low = soc_drop_for(10.0);
  const double high = soc_drop_for(20.0);
  EXPECT_GT(high, 2.0 * low * 1.01);
}

}  // namespace
}  // namespace evc::core
