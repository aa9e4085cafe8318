// Solver hot-path properties: a steady state that does not grow the SQP
// solver's QP workspace, a solver that keeps a problem's fixed structure
// returning a fresh solver's bits, and warm-started solves agreeing with
// cold-started ones.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "battery/battery_params.hpp"
#include "core/mpc_controller.hpp"
#include "core/mpc_formulation.hpp"
#include "hvac/hvac_params.hpp"
#include "optim/sqp.hpp"

namespace {

using namespace evc;

core::MpcFormulation make_window_formulation(
    std::size_t horizon, core::MpcWeights weights = {}) {
  core::MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = 25.5;
  w.initial_soc_percent = 88.0;
  w.fixed_power_kw.assign(horizon, 9.0);
  w.outside_temp_c.assign(horizon, 35.0);
  return core::MpcFormulation(hvac::default_hvac_params(),
                              bat::leaf_24kwh_params(), weights, w);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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

// One solver keeps its regularized H, its copy of A and their nonzero
// views while the problem returns the same structure handle. Alternating
// between windows whose fixed matrices differ (other weights, another
// horizon), a separately built formulation with the same parameters, and a
// window moved by set_window(), every solve must return what a fresh
// solver returns, bit for bit.
TEST(SqpStructureCache, AlternatingWindowsMatchFreshSolver) {
  const opt::SqpOptions options = core::MpcOptions{}.sqp;
  core::MpcWeights comfort_heavy;
  comfort_heavy.comfort = 0.9;
  comfort_heavy.soc_deviation = 0.5;
  auto base = make_window_formulation(6);
  const auto reweighted = make_window_formulation(6, comfort_heavy);
  const auto longer = make_window_formulation(9);
  const auto rebuilt = make_window_formulation(6);
  ASSERT_NE(base.fixed_structure(), nullptr);
  ASSERT_NE(base.fixed_structure(), rebuilt.fixed_structure());

  core::MpcWindowData moved = base.window();
  moved.initial_cabin_temp_c = 29.0;
  moved.initial_soc_percent = 71.5;
  moved.fixed_power_kw[2] = 14.0;
  moved.outside_temp_c[4] = 38.0;

  const opt::SqpSolver solver(options);
  const core::MpcFormulation* sequence[] = {&base,   &reweighted, &base,
                                            &longer, &base,       &rebuilt,
                                            &base,   &reweighted, &longer};
  std::vector<std::size_t> seed;
  for (std::size_t step = 0; step <= std::size(sequence); ++step) {
    if (step == std::size(sequence)) base.set_window(moved);
    const core::MpcFormulation& f =
        step < std::size(sequence) ? *sequence[step] : base;
    const num::Vector z0 = f.cold_start();
    const std::vector<std::size_t>* warm = step % 2 == 1 ? &seed : nullptr;
    const opt::SqpResult kept = solver.solve(f, z0, warm);
    const opt::SqpResult fresh = opt::SqpSolver(options).solve(f, z0, warm);
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_TRUE(fresh.usable());
    EXPECT_EQ(kept.status, fresh.status);
    EXPECT_EQ(kept.iterations, fresh.iterations);
    EXPECT_EQ(kept.qp_iterations_total, fresh.qp_iterations_total);
    EXPECT_EQ(kept.active_ineq, fresh.active_ineq);
    EXPECT_EQ(bits(kept.cost), bits(fresh.cost));
    EXPECT_EQ(bits(kept.constraint_violation),
              bits(fresh.constraint_violation));
    ASSERT_EQ(kept.x.size(), fresh.x.size());
    for (std::size_t i = 0; i < fresh.x.size(); ++i)
      EXPECT_EQ(bits(kept.x[i]), bits(fresh.x[i])) << "x[" << i << "]";
    seed = fresh.active_ineq;
  }
}

TEST(SqpWarmStart, MatchesColdSolutionOnMpcWindow) {
  const auto f = make_window_formulation(6);
  core::MpcOptions opts;  // the tuned receding-horizon SQP settings
  const num::Vector z0 = f.cold_start();

  const opt::SqpSolver cold_solver(opts.sqp);
  const auto cold = cold_solver.solve(f, z0);
  ASSERT_TRUE(cold.usable());
  ASSERT_FALSE(cold.active_ineq.empty());

  const opt::SqpSolver warm_solver(opts.sqp);
  const auto warm = warm_solver.solve(f, z0, &cold.active_ineq);
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
