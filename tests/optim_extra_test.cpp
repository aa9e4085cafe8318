// Additional optimizer stress tests: degenerate QPs, equality-constrained
// randomized families checked against exhaustive active-set enumeration,
// and SQP on smooth nonlinear equality manifolds beyond the bilinear
// family.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "optim/condensed_qp.hpp"
#include "optim/sqp.hpp"
#include "qp_kkt_certificate.hpp"
#include "util/random.hpp"

namespace evc::opt {
namespace {

using num::Matrix;
using num::Vector;

// --- Degenerate QPs ---

TEST(QpDegenerate, DuplicateInequalityRows) {
  // The same constraint twice must not confuse the solver.
  QpProblem p;
  p.h = Matrix::identity(2);
  p.h *= 2.0;
  p.g = Vector{-6, 0};  // pull toward x0 = 3
  p.e_mat = Matrix(0, 2);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(2, 2);
  p.a_mat(0, 0) = 1;
  p.a_mat(1, 0) = 1;
  p.b_vec = Vector{1, 1};
  const QpResult r = solve_dense(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  expect_kkt_certificate(p, r);
}

TEST(QpDegenerate, ActiveConstraintExactlyAtOptimum) {
  // Unconstrained optimum sits exactly on the boundary (weakly active).
  QpProblem p;
  p.h = Matrix(1, 1, 2.0);
  p.g = Vector{-2.0};  // optimum x = 1
  p.e_mat = Matrix(0, 1);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(1, 1, 1.0);
  p.b_vec = Vector{1.0};  // x ≤ 1, active with zero multiplier
  const QpResult r = solve_dense(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  // The unconstrained minimizer already satisfies the row, so the active
  // set never adds it: the vertex is exact and the multiplier zero.
  EXPECT_NEAR(r.x[0], 1.0, 1e-12);
  EXPECT_EQ(r.z_ineq[0], 0.0);
}

TEST(QpDegenerate, VeryIllScaledProblem) {
  // Hessian scales spanning 8 orders of magnitude.
  QpProblem p;
  p.h = Matrix(2, 2);
  p.h(0, 0) = 1e-4;
  p.h(1, 1) = 1e4;
  p.g = Vector{-1e-4, -1e4};  // optimum (1, 1)
  p.e_mat = Matrix(0, 2);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(2, 2);
  p.a_mat(0, 0) = 1;
  p.a_mat(1, 1) = 1;
  p.b_vec = Vector{10, 10};
  const QpResult r = solve_dense(p);
  ASSERT_TRUE(r.usable());
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

// --- Randomized equality-constrained cross-validation ---

class EqualityCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(EqualityCrossValidation, BothSolversAgree) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 911 + 17);
  const std::size_t n = 3 + rng.next_u64() % 5;
  const std::size_t me = 1 + rng.next_u64() % (n - 1);

  QpProblem p;
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  p.h = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 0.5;
  p.g = Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-1, 1);

  Vector xf(n);
  for (std::size_t i = 0; i < n; ++i) xf[i] = rng.uniform(-1, 1);
  p.e_mat = Matrix(me, n);
  p.e_vec = Vector(me);
  for (std::size_t r = 0; r < me; ++r) {
    for (std::size_t c = 0; c < n; ++c) p.e_mat(r, c) = rng.uniform(-1, 1);
    p.e_vec[r] = p.e_mat.row(r).dot(xf);
  }
  // Loose box so the active set has inequalities to consider.
  p.a_mat = Matrix(2 * n, n);
  p.b_vec = Vector(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p.a_mat(2 * i, i) = 1.0;
    p.b_vec[2 * i] = 5.0;
    p.a_mat(2 * i + 1, i) = -1.0;
    p.b_vec[2 * i + 1] = 5.0;
  }

  // The two solvers: the active set, and exhaustive enumeration of the
  // box rows' working sets (equalities always active).
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  const QpResult r = solve_dense(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  expect_kkt_certificate(p, r);
  const double best = enumerated_optimum(p);
  ASSERT_TRUE(std::isfinite(best));
  EXPECT_NEAR(r.objective, best, 1e-8 * (1.0 + std::abs(best)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqualityCrossValidation,
                         ::testing::Range(0, 25));

// --- SQP on a circular manifold ---

/// min (x−2)² + y²  s.t.  x² + y² = 1  →  optimum (1, 0), cost 1.
class CircleProblem : public NlpProblem {
 public:
  CircleProblem() : a_(0, 2), b_(0) {
    // The circle row is solved for x (pivot 2x).
    plan_.num_vars = 2;
    plan_.dep_rows = {0};
    plan_.dep_cols = {0};
    plan_.finalize();
  }
  std::size_t num_vars() const override { return 2; }
  std::size_t num_eq() const override { return 1; }
  double cost(const Vector& x) const override {
    return (x[0] - 2.0) * (x[0] - 2.0) + x[1] * x[1];
  }
  Vector cost_gradient(const Vector& x) const override {
    return Vector{2.0 * (x[0] - 2.0), 2.0 * x[1]};
  }
  Matrix cost_hessian(const Vector&) const override {
    Matrix h = Matrix::identity(2);
    h *= 2.0;
    return h;
  }
  Vector eq_constraints(const Vector& x) const override {
    return Vector{x[0] * x[0] + x[1] * x[1] - 1.0};
  }
  void eq_jacobian(const Vector& x, Matrix& j) const override {
    j.resize(1, 2);
    j(0, 0) = 2.0 * x[0];
    j(0, 1) = 2.0 * x[1];
  }
  const Matrix& ineq_matrix() const override { return a_; }
  const Vector& ineq_vector() const override { return b_; }
  const CondensingPlan* condensing_plan() const override { return &plan_; }

 private:
  Matrix a_;
  Vector b_;
  CondensingPlan plan_;
};

class SqpCircle : public ::testing::TestWithParam<int> {};

TEST_P(SqpCircle, ConvergesFromRingOfStarts) {
  const double angle =
      static_cast<double>(GetParam()) / 12.0 * 2.0 * 3.14159265358979;
  // Start on a ring of radius 1.5 (infeasible) at various angles,
  // excluding the antipodal saddle direction.
  const Vector x0{1.5 * std::cos(angle) + 0.1, 1.5 * std::sin(angle)};
  CircleProblem problem;
  SqpOptions opts;
  opts.max_iterations = 60;
  const SqpSolver solver(opts);
  const SqpResult r = solver.solve(problem, x0);
  ASSERT_TRUE(r.usable()) << "angle " << angle;
  // This curved equality manifold used to stall the ℓ1 merit line search
  // at ~1e-2 violation (the Maratos effect — full SQP steps zigzag across
  // the manifold without shrinking the violation). The second-order
  // correction in SqpSolver fixes it; see docs/SEED_FAILURES.md for the
  // history. The strict bound guards against regressing the correction.
  EXPECT_LT(r.constraint_violation, 1e-5) << "angle " << angle;
  // Global optimum (1,0) has cost 1; local max (−1,0) has cost 9. Accept
  // the global basin only for starts in the right half-ring.
  if (std::cos(angle) > 0.2) {
    EXPECT_NEAR(r.x[0], 1.0, 1e-3) << "angle " << angle;
    EXPECT_NEAR(r.cost, 1.0, 1e-3) << "angle " << angle;
  }
}

INSTANTIATE_TEST_SUITE_P(Angles, SqpCircle, ::testing::Range(0, 12));

// --- Structured solve outcomes and time budgets ---

TEST(SolveStatus, MapsNativeStatusesOntoSharedEnum) {
  EXPECT_EQ(solve_status(SqpStatus::kConverged), SolveStatus::kConverged);
  EXPECT_EQ(solve_status(SqpStatus::kMaxIterations),
            SolveStatus::kMaxIterations);
  EXPECT_EQ(solve_status(SqpStatus::kTimeout), SolveStatus::kTimeout);
  EXPECT_EQ(solve_status(SqpStatus::kQpFailure),
            SolveStatus::kNumericalFailure);
  EXPECT_FALSE(to_string(SolveStatus::kTimeout).empty());
}

TEST(SqpTimeBudget, StarvedBudgetReportsTimeout) {
  CircleProblem p;
  SqpOptions options;
  options.max_iterations = 50;
  options.time_budget_s = 1e-9;
  const SqpSolver solver(options);
  const SqpResult r = solver.solve(p, Vector{1.5, 0.5});
  ASSERT_EQ(r.status, SqpStatus::kTimeout);
  EXPECT_EQ(solve_status(r.status), SolveStatus::kTimeout);
  for (std::size_t i = 0; i < r.x.size(); ++i)
    EXPECT_TRUE(std::isfinite(r.x[i]));
}

}  // namespace
}  // namespace evc::opt
