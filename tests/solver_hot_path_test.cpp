// Solver hot-path properties: a steady state that does not grow the SQP
// solver's QP workspace, and warm-started solves agreeing with
// cold-started ones.
#include <gtest/gtest.h>

#include <cstddef>

#include "battery/battery_params.hpp"
#include "core/mpc_controller.hpp"
#include "core/mpc_formulation.hpp"
#include "hvac/hvac_params.hpp"
#include "optim/sqp.hpp"

namespace {

using namespace evc;

core::MpcFormulation make_window_formulation(std::size_t horizon) {
  core::MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = 25.5;
  w.initial_soc_percent = 88.0;
  w.fixed_power_kw.assign(horizon, 9.0);
  w.outside_temp_c.assign(horizon, 35.0);
  return core::MpcFormulation(hvac::default_hvac_params(),
                              bat::leaf_24kwh_params(), core::MpcWeights{},
                              w);
}

// Steady-state solving through a persistent solver must not grow its QP
// workspace: the same window solved again holds the first solve's bytes.
TEST(SqpWorkspace, SteadyStateDoesNotGrow) {
  const auto f = make_window_formulation(12);
  const opt::SqpSolver solver(core::MpcOptions{}.sqp);
  const num::Vector z0 = f.cold_start();

  ASSERT_TRUE(solver.solve(f, z0).usable());
  const std::size_t bytes_after_first = solver.workspace_bytes();
  EXPECT_GT(bytes_after_first, 0u);
  EXPECT_EQ(solver.qp_counters().peak_workspace_bytes, bytes_after_first);

  for (int round = 0; round < 5; ++round)
    ASSERT_TRUE(solver.solve(f, z0).usable());
  EXPECT_EQ(solver.workspace_bytes(), bytes_after_first);
  EXPECT_EQ(solver.qp_counters().peak_workspace_bytes, bytes_after_first);
}

// A smaller window reuses the storage a larger one grew; only a larger one
// grows it again.
TEST(SqpWorkspace, SmallerProblemReusesStorage) {
  const opt::SqpSolver solver(core::MpcOptions{}.sqp);
  const auto window = make_window_formulation(12);
  ASSERT_TRUE(solver.solve(window, window.cold_start()).usable());
  const std::size_t bytes = solver.workspace_bytes();
  const auto smaller = make_window_formulation(6);
  ASSERT_TRUE(solver.solve(smaller, smaller.cold_start()).usable());
  EXPECT_EQ(solver.workspace_bytes(), bytes);
  const auto larger = make_window_formulation(16);
  ASSERT_TRUE(solver.solve(larger, larger.cold_start()).usable());
  EXPECT_GT(solver.workspace_bytes(), bytes);
}

TEST(SqpWarmStart, MatchesColdSolutionOnMpcWindow) {
  const auto f = make_window_formulation(6);
  core::MpcOptions opts;  // the tuned receding-horizon SQP settings
  const num::Vector z0 = f.cold_start();

  const opt::SqpSolver cold_solver(opts.sqp);
  const auto cold = cold_solver.solve(f, z0);
  ASSERT_TRUE(cold.usable());
  ASSERT_FALSE(cold.y_eq.empty());

  opt::SqpWarmStart seed;
  seed.y_eq = cold.y_eq;
  seed.z_ineq = cold.z_ineq;
  seed.active_ineq = cold.active_ineq;
  const opt::SqpSolver warm_solver(opts.sqp);
  const auto warm = warm_solver.solve(f, z0, &seed);
  ASSERT_TRUE(warm.usable());

  // Same NLP, same primal start; the working-set seed only accelerates the
  // first QP subproblem, so the iterates agree to the SQP step tolerance
  // (1e-3).
  for (std::size_t i = 0; i < z0.size(); ++i)
    EXPECT_NEAR(warm.x[i], cold.x[i], 2.0 * opts.sqp.step_tolerance);
}

// Receding-horizon controller: a warm-started replan must produce the same
// control as a cold-started plan of the same window.
TEST(MpcWarmStart, WarmReplanMatchesColdPlan) {
  const auto hvac_params = hvac::default_hvac_params();
  const auto battery_params = bat::leaf_24kwh_params();
  // The production settings cap SQP at 8 iterations (the receding horizon
  // forgives non-convergence); this equivalence check needs both plans to
  // actually reach the optimum, so raise the cap.
  core::MpcOptions opts;
  opts.sqp.max_iterations = 50;
  core::MpcClimateController warm_mpc(hvac_params, battery_params, opts);
  core::MpcClimateController cold_mpc(hvac_params, battery_params, opts);

  ctl::ControlContext c;
  c.dt_s = 1.0;
  c.cabin_temp_c = 25.0;
  c.outside_temp_c = 35.0;
  c.soc_percent = 88.0;
  c.motor_power_forecast_w.assign(120, 9e3);
  c.outside_temp_forecast_c.assign(120, 35.0);

  warm_mpc.decide(c);  // first plan (cold) seeds the warm state
  c.time_s += warm_mpc.options().step_s;
  const hvac::HvacInputs warm_input = warm_mpc.decide(c);
  EXPECT_EQ(warm_mpc.stats().dual_warm_starts, 1u);

  const hvac::HvacInputs cold_input = cold_mpc.decide(c);
  ASSERT_EQ(cold_mpc.stats().failures, 0u);
  ASSERT_EQ(warm_mpc.stats().failures, 0u);

  EXPECT_NEAR(warm_input.supply_temp_c, cold_input.supply_temp_c, 2e-2);
  EXPECT_NEAR(warm_input.coil_temp_c, cold_input.coil_temp_c, 2e-2);
  EXPECT_NEAR(warm_input.recirculation, cold_input.recirculation, 1e-2);
  EXPECT_NEAR(warm_input.air_flow_kg_s, cold_input.air_flow_kg_s, 1e-2);
}

}  // namespace
