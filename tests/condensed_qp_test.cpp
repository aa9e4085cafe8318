// Condensed QP solver: the full-space KKT certificate on real MPC
// subproblems across randomized horizons and constraint patterns,
// statelessness (bit-identical results whatever was solved before) and its
// counter accounting, working-set warm starts, the condensing-plan
// contract, controller checkpoint round-trips, and the one backend.
#include "optim/condensed_qp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "battery/battery_params.hpp"
#include "core/experiment.hpp"
#include "core/mpc_controller.hpp"
#include "core/mpc_formulation.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "hvac/hvac_params.hpp"
#include "numerics/kernels.hpp"
#include "obs/trace.hpp"
#include "optim/sqp.hpp"
#include "util/json_parse.hpp"
#include "util/random.hpp"
#include "util/serialize.hpp"

namespace {

using namespace evc;

core::MpcFormulation make_formulation(std::size_t horizon,
                                      std::uint64_t seed) {
  SplitMix64 rng(seed);
  core::MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = rng.uniform(18.0, 32.0);
  w.initial_soc_percent = rng.uniform(40.0, 95.0);
  w.fixed_power_kw.assign(horizon, 0.0);
  w.outside_temp_c.assign(horizon, 0.0);
  for (std::size_t k = 0; k < horizon; ++k) {
    w.fixed_power_kw[k] = rng.uniform(2.0, 18.0);
    w.outside_temp_c[k] = rng.uniform(-5.0, 40.0);
  }
  return core::MpcFormulation(hvac::default_hvac_params(),
                              bat::leaf_24kwh_params(), core::MpcWeights{},
                              w);
}

/// The QP subproblem the SQP layer would pose at iterate z — the exact
/// construction from SqpSolver::solve, so the condensed backend is tested
/// against the problems it actually sees.
opt::QpProblem subproblem_at(const core::MpcFormulation& f,
                             const num::Vector& z) {
  const std::size_t n = f.num_vars();
  opt::QpProblem qp;
  qp.h = f.cost_hessian(z);
  for (std::size_t i = 0; i < n; ++i) qp.h(i, i) += 1e-6;
  qp.g = f.cost_gradient(z);
  qp.e_mat = f.eq_jacobian(z);
  const num::Vector c = f.eq_constraints(z);
  qp.e_vec.resize(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) qp.e_vec[i] = -c[i];
  qp.a_mat = f.ineq_matrix();
  num::Vector ax(qp.a_mat.rows());
  num::gemv(1.0, qp.a_mat, z, 0.0, ax);
  qp.b_vec.resize(ax.size());
  for (std::size_t i = 0; i < ax.size(); ++i)
    qp.b_vec[i] = f.ineq_vector()[i] - ax[i];
  return qp;
}

/// CondensedQpSolver::solve with the nonzero views the SQP layer gathers
/// for `qp`.
opt::QpResult condensed_solve(opt::CondensedQpSolver& solver,
                              const opt::QpProblem& qp,
                              const opt::CondensingPlan& plan,
                              opt::QpPerfCounters& counters,
                              const std::vector<std::size_t>* warm) {
  opt::QpNonzeros nz;
  nz.h.assign(qp.h);
  nz.e.assign(qp.e_mat);
  nz.a.assign(qp.a_mat);
  return solver.solve(qp, nz, plan, counters, warm);
}

/// Small random perturbation of the cold start — a plausible SQP iterate, so
/// the linearization (and with it the binding pattern) varies per seed. Kept
/// small: a large kick puts dependent variables (powers, SoC) outside their
/// bounds in a way no step can repair, and the linearized QP is genuinely
/// infeasible — a problem the SQP line search never poses.
num::Vector perturbed_iterate(const core::MpcFormulation& f,
                              std::uint64_t seed, double magnitude) {
  SplitMix64 rng(seed);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] += magnitude * rng.uniform(-1.0, 1.0);
  return z;
}

struct KktReport {
  double objective = 0.0;
  double stationarity = 0.0;   ///< ‖Hx + g + Eᵀy + Aᵀz‖∞
  double eq_violation = 0.0;   ///< ‖Ex − e‖∞
  double ineq_violation = 0.0; ///< max(0, Ax − b)
  double dual_violation = 0.0; ///< max(0, −z)
  double complementarity = 0.0;
};

/// Full-space KKT residuals of a claimed solution — the solver-independent
/// optimality certificate of a convex QP. (The QP has near-flat valleys —
/// slack directions carry only the 1e-6 SQP regularization — so primal
/// *coordinates* are only determined to about residual/curvature; the
/// certificate, not a coordinate comparison, is what pins a solution
/// down.)
KktReport kkt_report(const opt::QpProblem& qp, const opt::QpResult& r) {
  const std::size_t n = qp.num_vars();
  KktReport out;
  num::Vector stat(n);
  num::gemv(1.0, qp.h, r.x, 0.0, stat);
  for (std::size_t j = 0; j < n; ++j)
    out.objective += (0.5 * stat[j] + qp.g[j]) * r.x[j];
  for (std::size_t j = 0; j < n; ++j) stat[j] += qp.g[j];
  stat += qp.e_mat.transpose_times(r.y_eq);
  stat += qp.a_mat.transpose_times(r.z_ineq);
  for (std::size_t j = 0; j < n; ++j)
    out.stationarity = std::max(out.stationarity, std::abs(stat[j]));
  for (std::size_t i = 0; i < qp.num_ineq(); ++i)
    out.dual_violation = std::max(out.dual_violation, -r.z_ineq[i]);
  num::Vector ex(qp.num_eq());
  num::gemv(1.0, qp.e_mat, r.x, 0.0, ex);
  for (std::size_t i = 0; i < qp.num_eq(); ++i)
    out.eq_violation = std::max(out.eq_violation, std::abs(ex[i] - qp.e_vec[i]));
  num::Vector ax(qp.num_ineq());
  num::gemv(1.0, qp.a_mat, r.x, 0.0, ax);
  for (std::size_t i = 0; i < qp.num_ineq(); ++i) {
    out.ineq_violation = std::max(out.ineq_violation, ax[i] - qp.b_vec[i]);
    out.complementarity = std::max(
        out.complementarity, std::abs(r.z_ineq[i] * (qp.b_vec[i] - ax[i])));
  }
  return out;
}

/// Every KKT residual of `cert` within `tol`.
void expect_certified(const KktReport& cert, double tol) {
  EXPECT_LE(cert.stationarity, tol);
  EXPECT_LE(cert.eq_violation, tol);
  EXPECT_LE(cert.ineq_violation, tol);
  EXPECT_LE(cert.dual_violation, tol);
  EXPECT_LE(cert.complementarity, tol);
}

TEST(CondensedQpTest, SatisfiesKktAcrossHorizonsAndPatterns) {
  // 1e-8 in the quantities double precision actually pins down: the
  // condensed solution's full-space KKT certificate against the original
  // (uncondensed) problem — stationarity, feasibility, dual sign and
  // complementarity all ≤ 1e-8.
  for (const std::size_t horizon : {4u, 7u, 12u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("h=" + std::to_string(horizon) +
                   " seed=" + std::to_string(seed));
      const auto f = make_formulation(horizon, 100 * horizon + seed);
      const num::Vector z = perturbed_iterate(f, seed, 0.01);
      const opt::QpProblem qp = subproblem_at(f, z);

      opt::CondensedQpSolver solver;
      opt::QpPerfCounters counters;
      const opt::QpResult condensed = condensed_solve(
          solver, qp, *f.condensing_plan(), counters, nullptr);
      ASSERT_TRUE(condensed.usable());
      expect_certified(kkt_report(qp, condensed), 1e-8);
    }
  }
}

TEST(CondensedQpTest, ActiveSetChangesMidHorizonStillAgree) {
  // Nudge the iterate progressively further from the cold start so the
  // binding pattern (slack rows, input bounds) shifts between solves, and
  // warm-start each solve from the previous one's working set — the
  // receding-horizon usage, including active-set changes mid-horizon. Each
  // warm solve must hold the certificate and agree with a cold solve of the
  // same subproblem in objective.
  const auto f = make_formulation(10, 77);
  opt::CondensedQpSolver solver;
  opt::QpPerfCounters counters;
  std::vector<std::size_t> warm;
  const std::vector<std::size_t>* seed = nullptr;
  for (int step = 0; step < 6; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const num::Vector z = perturbed_iterate(f, 900 + step, 0.004 * step);
    const opt::QpProblem qp = subproblem_at(f, z);

    opt::CondensedQpSolver cold_solver;
    opt::QpPerfCounters cold_counters;
    const opt::QpResult cold = condensed_solve(
        cold_solver, qp, *f.condensing_plan(), cold_counters, nullptr);
    ASSERT_TRUE(cold.usable());
    const opt::QpResult condensed =
        condensed_solve(solver, qp, *f.condensing_plan(), counters, seed);
    ASSERT_TRUE(condensed.usable());
    const KktReport cert = kkt_report(qp, condensed);
    expect_certified(cert, 1e-8);
    EXPECT_NEAR(cert.objective, kkt_report(qp, cold).objective,
                1e-8 * (1.0 + std::abs(cert.objective)));

    warm = condensed.active_ineq;
    seed = &warm;
  }
  EXPECT_EQ(counters.solves, 6u);
  EXPECT_EQ(counters.factorizations, 6u);
  EXPECT_EQ(counters.warm_starts, 5u);
}

/// Bitwise equality (EXPECT_EQ on doubles would let −0 match +0).
void expect_same_bits(const num::Vector& a, const num::Vector& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]";
}

TEST(CondensedQpTest, SolveIsPureFunctionOfProblemAndSeed) {
  // The solver keeps no cross-solve state: one that has already solved
  // other subproblems — other horizons, other linearizations, warm-seeded
  // chains — returns the very bits a fresh solver does, cold and warm.
  const auto f = make_formulation(12, 31);
  const opt::QpProblem target =
      subproblem_at(f, perturbed_iterate(f, 31, 0.01));

  opt::CondensedQpSolver fresh;
  opt::QpPerfCounters fresh_counters;
  const auto cold = condensed_solve(fresh, target, *f.condensing_plan(),
                                    fresh_counters, nullptr);
  ASSERT_TRUE(cold.usable());
  ASSERT_FALSE(cold.active_ineq.empty());
  const std::vector<std::size_t> seed = cold.active_ineq;
  opt::CondensedQpSolver fresh_warm;
  const auto warm = condensed_solve(fresh_warm, target, *f.condensing_plan(),
                                    fresh_counters, &seed);
  ASSERT_TRUE(warm.usable());

  opt::CondensedQpSolver used;
  opt::QpPerfCounters counters;
  std::size_t solved = 0;
  for (const std::size_t horizon : {7u, 12u}) {
    const auto other = make_formulation(horizon, 500 + horizon);
    std::vector<std::size_t> chain;
    const std::vector<std::size_t>* chain_seed = nullptr;
    for (std::uint64_t k = 0; k < 3; ++k) {
      const auto r = condensed_solve(
          used, subproblem_at(other, perturbed_iterate(other, 600 + k, 0.01)),
          *other.condensing_plan(), counters, chain_seed);
      ASSERT_TRUE(r.usable()) << "h=" << horizon << " k=" << k;
      ++solved;
      chain = r.active_ineq;
      chain_seed = &chain;
    }
  }
  const auto cold_again = condensed_solve(used, target, *f.condensing_plan(),
                                          counters, nullptr);
  const auto warm_again = condensed_solve(used, target, *f.condensing_plan(),
                                          counters, &seed);
  ASSERT_TRUE(cold_again.usable());
  ASSERT_TRUE(warm_again.usable());
  solved += 2;
  expect_same_bits(cold_again.x, cold.x, "cold x");
  expect_same_bits(cold_again.y_eq, cold.y_eq, "cold y");
  expect_same_bits(cold_again.z_ineq, cold.z_ineq, "cold z");
  expect_same_bits(warm_again.x, warm.x, "warm x");
  expect_same_bits(warm_again.y_eq, warm.y_eq, "warm y");
  expect_same_bits(warm_again.z_ineq, warm.z_ineq, "warm z");
  EXPECT_EQ(cold_again.active_ineq, cold.active_ineq);
  EXPECT_EQ(warm_again.active_ineq, warm.active_ineq);
  EXPECT_EQ(warm_again.iterations, warm.iterations);
  EXPECT_TRUE(std::is_sorted(warm.active_ineq.begin(), warm.active_ineq.end()));

  // Every solve condenses, and the counters say so: one condensing and
  // reduced-Hessian factorization per solve, so a hit ratio computed from
  // them reads 0. Warm starts count the seeded solves (two per chain plus
  // the final warm one).
  EXPECT_EQ(counters.solves, solved);
  EXPECT_EQ(counters.factorizations, solved);
  EXPECT_EQ(counters.warm_starts, 5u);
}

TEST(CondensedQpTest, WorkingSetSeedMatchesColdSolve) {
  // A solve seeded with a neighbouring subproblem's final working set
  // reaches the cold solve's optimum (objective 1e-5 relative, x 1e-4).
  opt::CondensedQpSolver solver;
  opt::QpPerfCounters counters;
  for (const std::size_t horizon : {4u, 7u, 12u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto f = make_formulation(horizon, 300 + 10 * horizon + seed);
      const opt::CondensingPlan& plan = *f.condensing_plan();
      const opt::QpResult prev = condensed_solve(
          solver, subproblem_at(f, perturbed_iterate(f, seed, 0.01)), plan,
          counters, nullptr);
      ASSERT_TRUE(prev.usable()) << "h=" << horizon << " seed=" << seed;
      ASSERT_FALSE(prev.active_ineq.empty());
      const opt::QpProblem qp =
          subproblem_at(f, perturbed_iterate(f, seed + 50, 0.01));
      const opt::QpResult cold =
          condensed_solve(solver, qp, plan, counters, nullptr);
      ASSERT_TRUE(cold.usable()) << "h=" << horizon << " seed=" << seed;

      const opt::QpResult r =
          condensed_solve(solver, qp, plan, counters, &prev.active_ineq);
      ASSERT_TRUE(r.usable()) << "h=" << horizon << " seed=" << seed;
      EXPECT_NEAR(r.objective, cold.objective,
                  1e-5 * (1.0 + std::abs(cold.objective)))
          << "h=" << horizon << " seed=" << seed;
      for (std::size_t i = 0; i < qp.num_vars(); ++i)
        EXPECT_NEAR(r.x[i], cold.x[i], 1e-4)
            << "h=" << horizon << " seed=" << seed << " var " << i;
    }
  }
}

TEST(CondensedQpTest, RecedingHorizonWarmSolvesTakeFewDualSteps) {
  // Closed loop over the first 400 s of ECE_EUDC at 35 C: every subproblem
  // after the first plan is seeded with the previous subproblem's working
  // set (shifted by one stage at plan boundaries). Measured: 5.94 dual
  // steps per warm solve over 627 solves; seeding from the multiplier
  // support alone took 32.8. The bound leaves room for rounding-level drift
  // in the closed-loop path.
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 400);
  auto controller = core::make_mpc_controller(params);
  core::SimulationSession session(params, *controller, profile, {});
  while (controller->stats().plans < 1) session.advance();
  const std::size_t steps0 = controller->stats().qp_iterations;
  const std::size_t solves0 = controller->stats().solver.solves;
  session.run_to_completion();
  const core::MpcPlanStats& stats = controller->stats();
  const std::size_t warm_solves = stats.solver.solves - solves0;
  ASSERT_GT(warm_solves, 300u);
  EXPECT_EQ(stats.failures, 0u);
  const double mean_steps =
      static_cast<double>(stats.qp_iterations - steps0) /
      static_cast<double>(warm_solves);
  EXPECT_LT(mean_steps, 8.0) << "over " << warm_solves << " warm solves";
}

/// The first 600 s of ECE_EUDC at 35 C under an MPC with `options`: the
/// trip's metrics and the controller's plan statistics.
std::pair<core::TripMetrics, core::MpcPlanStats> run_pinned_trip(
    const core::MpcOptions& options) {
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 600);
  auto controller = core::make_mpc_controller(params, options);
  core::SimulationSession session(params, *controller, profile, {});
  session.run_to_completion();
  return {session.finish().metrics, controller->stats()};
}

TEST(CondensedQpTest, ClosedLoopTripIsPinnedBitForBit) {
  // A solver change that claims to save work without changing the science
  // must leave every bit of the trip's paper quantities, and every count
  // of the work done, as recorded here. Recorded with N = 12, 8 SQP
  // iterations and the second-order correction on, so the trip exercises
  // the correction and later iterations of a plan.
  core::MpcOptions options;
  options.horizon = 12;
  options.sqp.max_iterations = 8;
  options.sqp.second_order_correction = true;
  const auto [m, stats] = run_pinned_trip(options);
  // 0.012972434059650883 %, 1255.8375964059251 W, 0.03602664139063004 C.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.delta_soh_percent),
            0x3f8a914aa0492606ull)
      << m.delta_soh_percent;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.avg_hvac_power_w),
            0x40939f59b2df4ac8ull)
      << m.avg_hvac_power_w;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.comfort.rms_error_c),
            0x3fa272157d1d6d7eull)
      << m.comfort.rms_error_c;
  EXPECT_EQ(stats.plans, 120u);
  EXPECT_EQ(stats.sqp_iterations, 955u);
  EXPECT_EQ(stats.qp_iterations, 5676u);
}

TEST(CondensedQpTest, ClosedLoopTripAtTheDefaultIsPinnedBitForBit) {
  // The same trip under the default MPC: a change to the default's values
  // or to the solver's arithmetic shows here.
  const auto [m, stats] = run_pinned_trip(core::MpcOptions{});
  // 0.012965218545385408 %, 1239.2705909109047 W, 0.01326235649047436 C.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.delta_soh_percent),
            0x3f8a8d822d1a7762ull)
      << m.delta_soh_percent;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.avg_hvac_power_w),
            0x40935d1515c8a3b9ull)
      << m.avg_hvac_power_w;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.comfort.rms_error_c),
            0x3f8b294b5b27e581ull)
      << m.comfort.rms_error_c;
  EXPECT_EQ(stats.plans, 120u);
  EXPECT_EQ(stats.sqp_iterations, 480u);
  EXPECT_EQ(stats.qp_iterations, 1005u);
}

/// An MPC window whose condensing plan is sized for a problem one variable
/// larger, or that offers no plan at all.
class MismatchedPlanProblem : public opt::NlpProblem {
 public:
  MismatchedPlanProblem(const core::MpcFormulation& f, bool offer_plan)
      : f_(f), plan_(*f.condensing_plan()), offer_plan_(offer_plan) {
    plan_.num_vars += 1;
  }
  std::size_t num_vars() const override { return f_.num_vars(); }
  std::size_t num_eq() const override { return f_.num_eq(); }
  double cost(const num::Vector& x) const override { return f_.cost(x); }
  num::Vector cost_gradient(const num::Vector& x) const override {
    return f_.cost_gradient(x);
  }
  num::Matrix cost_hessian(const num::Vector& x) const override {
    return f_.cost_hessian(x);
  }
  num::Vector eq_constraints(const num::Vector& x) const override {
    return f_.eq_constraints(x);
  }
  num::Matrix eq_jacobian(const num::Vector& x) const override {
    return f_.eq_jacobian(x);
  }
  const num::Matrix& ineq_matrix() const override { return f_.ineq_matrix(); }
  const num::Vector& ineq_vector() const override { return f_.ineq_vector(); }
  const opt::CondensingPlan* condensing_plan() const override {
    return offer_plan_ ? &plan_ : nullptr;
  }

 private:
  const core::MpcFormulation& f_;
  opt::CondensingPlan plan_;
  bool offer_plan_;
};

TEST(CondensedQpTest, MismatchedPlanIsRejected) {
  // A plan that does not fit its problem, or none at all, is a programming
  // error: the solve throws instead of answering by another route.
  const auto f = make_formulation(6, 11);
  const opt::SqpSolver solver(core::MpcOptions{}.sqp);
  for (const bool offer_plan : {true, false}) {
    const MismatchedPlanProblem problem(f, offer_plan);
    EXPECT_THROW(solver.solve(problem, f.cold_start()), std::invalid_argument)
        << "offer_plan=" << offer_plan;
  }
  EXPECT_EQ(solver.qp_counters().factorizations, 0u);
}

#if !defined(EVC_OBS_NO_TRACING)
TEST(CondensedQpTest, SqpSolveSpanReportsStatusAndCorrections) {
  // The sqp.solve span says how the solve ended and how often the
  // second-order correction was tried and taken, matching the result.
  const auto f = make_formulation(8, 42);
  const opt::SqpSolver solver(core::MpcOptions{}.sqp);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const opt::SqpResult result = solver.solve(f, f.cold_start());
  const JsonValue doc = parse_json(tracer.chrome_json());
  tracer.set_enabled(false);
  tracer.clear();
  ASSERT_TRUE(result.usable());
  EXPECT_GE(result.soc_tried, result.soc_steps);

  const JsonValue* args = nullptr;
  for (const JsonValue& event : doc.find("traceEvents")->items())
    if (event.find("name")->as_string() == "sqp.solve")
      args = event.find("args");
  ASSERT_NE(args, nullptr);
  const auto arg = [args](const char* name) {
    const JsonValue* v = args->find(name);
    return v != nullptr ? v->as_number() : -1.0;
  };
  EXPECT_EQ(arg("iterations"), static_cast<double>(result.iterations));
  EXPECT_EQ(arg("status"), static_cast<double>(result.status));
  EXPECT_EQ(arg("soc_tried"), static_cast<double>(result.soc_tried));
  EXPECT_EQ(arg("soc_steps"), static_cast<double>(result.soc_steps));
}
TEST(CondensedQpTest, PlanSpanReportsDualSteps) {
  // Each mpc.plan span carries the plan's active-set dual steps as
  // qp_iterations: the growth of MpcPlanStats::qp_iterations over it.
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 60);
  auto controller = core::make_mpc_controller(params);
  core::SimulationSession session(params, *controller, profile, {});
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  std::vector<double> deltas;
  while (!session.done()) {
    const std::size_t plans = controller->stats().plans;
    const std::size_t steps = controller->stats().qp_iterations;
    session.advance();
    if (controller->stats().plans > plans)
      deltas.push_back(
          static_cast<double>(controller->stats().qp_iterations - steps));
  }
  const JsonValue doc = parse_json(tracer.chrome_json());
  tracer.set_enabled(false);
  tracer.clear();

  std::vector<double> args;
  for (const JsonValue& event : doc.find("traceEvents")->items()) {
    if (event.find("name")->as_string() != "mpc.plan") continue;
    const JsonValue* v = event.find("args")->find("qp_iterations");
    args.push_back(v != nullptr ? v->as_number() : -1.0);
  }
  ASSERT_GT(deltas.size(), 5u);
  EXPECT_EQ(args, deltas);
}
#endif  // !EVC_OBS_NO_TRACING

TEST(CondensedQpTest, BackendNamesAndCondensedDefault) {
  EXPECT_STREQ(opt::to_string(opt::QpBackend::kCondensed), "condensed");
  // The condensed solver is the only one, at both layers, and no option
  // can select another.
  EXPECT_EQ(opt::SqpOptions::backend, opt::QpBackend::kCondensed);
  EXPECT_EQ(core::MpcOptions{}.sqp.backend, opt::QpBackend::kCondensed);
  opt::SqpOptions options;
  static_assert(!std::is_assignable_v<decltype((options.backend)),
                                      opt::QpBackend>);
}

TEST(CondensedQpTest, ControllerCheckpointRoundTripUnderCondensedBackend) {
  const core::MpcOptions opts;
  core::MpcClimateController mpc(hvac::default_hvac_params(),
                                 bat::leaf_24kwh_params(), opts);
  ctl::ControlContext c;
  c.dt_s = 1.0;
  c.cabin_temp_c = 27.0;
  c.outside_temp_c = 34.0;
  c.soc_percent = 80.0;
  c.motor_power_forecast_w.assign(60, 8e3);
  c.outside_temp_forecast_c.assign(60, 34.0);
  for (int i = 0; i < 3; ++i) {
    mpc.decide(c);
    c.time_s += mpc.options().step_s;
  }
  ASSERT_GT(mpc.stats().solver.solves, 0u);

  BinaryWriter writer;
  mpc.save_state(writer);
  const std::string bytes = writer.take();
  core::MpcClimateController restored(hvac::default_hvac_params(),
                                      bat::leaf_24kwh_params(), opts);
  BinaryReader reader(bytes);
  restored.load_state(reader);
  EXPECT_EQ(restored.stats().solver.solves, mpc.stats().solver.solves);
  EXPECT_EQ(restored.stats().solver.factorizations,
            mpc.stats().solver.factorizations);

  // Both controllers now replan identically: same inputs, same counters.
  ctl::ControlContext c2 = c;
  const auto a = mpc.decide(c);
  const auto b = restored.decide(c2);
  EXPECT_DOUBLE_EQ(a.supply_temp_c, b.supply_temp_c);
  EXPECT_DOUBLE_EQ(a.coil_temp_c, b.coil_temp_c);
  EXPECT_DOUBLE_EQ(a.recirculation, b.recirculation);
  EXPECT_DOUBLE_EQ(a.air_flow_kg_s, b.air_flow_kg_s);
  EXPECT_EQ(restored.stats().solver.solves, mpc.stats().solver.solves);
  // The restored working set seeds the next plan exactly as the original
  // does, so it takes the same dual steps.
  EXPECT_EQ(restored.stats().qp_iterations, mpc.stats().qp_iterations);
  EXPECT_EQ(restored.last_working_set(), mpc.last_working_set());
}

}  // namespace
