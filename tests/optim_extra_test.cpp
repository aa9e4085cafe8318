// Additional optimizer stress tests: degenerate QPs, equality-constrained
// randomized families solved by both QP solvers, and SQP on smooth
// nonlinear equality manifolds beyond the bilinear family.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "numerics/factorization.hpp"
#include "optim/dense_active_set.hpp"
#include "optim/sqp.hpp"
#include "qp_kkt_certificate.hpp"
#include "util/random.hpp"

namespace evc::opt {
namespace {

using num::Matrix;
using num::Vector;

/// Solve with the dense active-set solver from a cold start. Equality rows
/// enter as opposing inequality pairs, e_iᵀx ≤ e_i and −e_iᵀx ≤ −e_i.
DenseActiveSetOutput solve_dense(const QpProblem& p, Vector& x) {
  const std::size_t n = p.h.rows(), mi = p.num_ineq(), me = p.num_eq();
  Matrix a(mi + 2 * me, n);
  Vector b(mi + 2 * me);
  for (std::size_t r = 0; r < mi; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = p.a_mat(r, c);
    b[r] = p.b_vec[r];
  }
  for (std::size_t r = 0; r < me; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a(mi + 2 * r, c) = p.e_mat(r, c);
      a(mi + 2 * r + 1, c) = -p.e_mat(r, c);
    }
    b[mi + 2 * r] = p.e_vec[r];
    b[mi + 2 * r + 1] = -p.e_vec[r];
  }
  num::CholeskyFactorization h_chol;
  EXPECT_TRUE(h_chol.factorize(p.h));
  DenseActiveSetSolver solver;
  Vector lambda;
  return solver.solve(h_chol, p.h, a, nullptr, p.g, b, {}, {}, x, lambda);
}

// --- Degenerate QPs ---

TEST(QpDegenerate, DuplicateInequalityRows) {
  // The same constraint twice must not confuse either solver.
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
  const QpResult ip = solve_qp(p);
  ASSERT_EQ(ip.status, QpStatus::kSolved);
  EXPECT_NEAR(ip.x[0], 1.0, 1e-6);
  Vector x;
  ASSERT_TRUE(solve_dense(p, x).usable());
  EXPECT_NEAR(x[0], 1.0, 1e-6);
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
  const QpResult r = solve_qp(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  // 1e-4, not the solver's 1e-8 duality tolerance: on a weakly active
  // constraint (zero multiplier) the central path satisfies s·z ≈ tol with
  // both s and z free, so the primal gap is O(√tol) ≈ 1e-4 — an interior-
  // point property, not a bug (see docs/SEED_FAILURES.md).
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_LT(r.z_ineq[0], 1e-3);
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
  const QpResult r = solve_qp(p);
  ASSERT_TRUE(r.usable());
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
  EXPECT_NEAR(r.x[1], 1.0, 1e-4);
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

  const QpResult ip = solve_qp(p);
  ASSERT_EQ(ip.status, QpStatus::kSolved) << "seed " << GetParam();
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  expect_kkt_certificate(p, ip);
  Vector x;
  ASSERT_TRUE(solve_dense(p, x).usable());
  const double objective = 0.5 * x.dot(p.h * x) + p.g.dot(x);
  EXPECT_NEAR(objective, ip.objective, 1e-5 * (1.0 + std::abs(ip.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqualityCrossValidation,
                         ::testing::Range(0, 25));

// --- SQP on a circular manifold ---

/// min (x−2)² + y²  s.t.  x² + y² = 1  →  optimum (1, 0), cost 1.
class CircleProblem : public NlpProblem {
 public:
  CircleProblem() : a_(0, 2), b_(0) {}
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
  Matrix eq_jacobian(const Vector& x) const override {
    Matrix j(1, 2);
    j(0, 0) = 2.0 * x[0];
    j(0, 1) = 2.0 * x[1];
    return j;
  }
  const Matrix& ineq_matrix() const override { return a_; }
  const Vector& ineq_vector() const override { return b_; }

 private:
  Matrix a_;
  Vector b_;
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
  EXPECT_EQ(solve_status(QpStatus::kSolved), SolveStatus::kConverged);
  EXPECT_EQ(solve_status(QpStatus::kMaxIterations),
            SolveStatus::kMaxIterations);
  EXPECT_EQ(solve_status(QpStatus::kTimeout), SolveStatus::kTimeout);
  EXPECT_EQ(solve_status(QpStatus::kNumericalIssue),
            SolveStatus::kNumericalFailure);
  EXPECT_EQ(solve_status(SqpStatus::kConverged), SolveStatus::kConverged);
  EXPECT_EQ(solve_status(SqpStatus::kMaxIterations),
            SolveStatus::kMaxIterations);
  EXPECT_EQ(solve_status(SqpStatus::kTimeout), SolveStatus::kTimeout);
  EXPECT_EQ(solve_status(SqpStatus::kQpFailure),
            SolveStatus::kNumericalFailure);
  EXPECT_FALSE(to_string(SolveStatus::kTimeout).empty());
}

QpProblem random_box_qp(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  QpProblem p;
  p.h = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) = 1.0 + rng.next_double();
  p.g = Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.normal(0.0, 3.0);
  p.e_mat = Matrix(0, n);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(2 * n, n);
  p.b_vec = Vector(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p.a_mat(2 * i, i) = 1.0;
    p.b_vec[2 * i] = 0.5;
    p.a_mat(2 * i + 1, i) = -1.0;
    p.b_vec[2 * i + 1] = 0.5;
  }
  return p;
}

TEST(QpTimeBudget, StarvedBudgetReportsTimeout) {
  // A budget of ~1 ns cannot cover more than the first IPM iteration; the
  // solver must exit with the structured timeout status and a coherent
  // (finite) iterate rather than running to the iteration cap.
  const QpProblem p = random_box_qp(30, 7);
  QpOptions options;
  options.time_budget_s = 1e-9;
  QpWorkspace ws;
  const QpResult r = solve_qp(p, options, ws);
  ASSERT_EQ(r.status, QpStatus::kTimeout);
  EXPECT_EQ(solve_status(r.status), SolveStatus::kTimeout);
  EXPECT_EQ(ws.counters().timeouts, 1u);
  for (std::size_t i = 0; i < r.x.size(); ++i)
    EXPECT_TRUE(std::isfinite(r.x[i]));
}

TEST(QpTimeBudget, GenerousBudgetSolvesNormally) {
  const QpProblem p = random_box_qp(30, 7);
  QpOptions options;
  options.time_budget_s = 30.0;
  QpWorkspace ws;
  const QpResult r = solve_qp(p, options, ws);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_EQ(ws.counters().timeouts, 0u);
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
