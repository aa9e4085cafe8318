// Unit + property tests for the interior-point QP solver.
//
// The property sweep checks the KKT conditions directly on randomized
// strictly convex problems: stationarity, primal feasibility, dual
// feasibility (z ≥ 0), and complementary slackness.
#include <gtest/gtest.h>

#include <cmath>

#include "optim/qp.hpp"
#include "qp_kkt_certificate.hpp"
#include "util/random.hpp"

namespace evc::opt {
namespace {

using num::Matrix;
using num::Vector;

QpProblem empty_constraints(QpProblem p, std::size_t n) {
  if (p.e_vec.empty()) p.e_mat = Matrix(0, n);
  if (p.b_vec.empty()) p.a_mat = Matrix(0, n);
  return p;
}

TEST(Qp, UnconstrainedQuadraticMinimum) {
  // min (x0−1)² + (x1+2)²  →  x = (1, −2).
  QpProblem p;
  p.h = Matrix(2, 2);
  p.h(0, 0) = 2;
  p.h(1, 1) = 2;
  p.g = Vector{-2, 4};
  p = empty_constraints(std::move(p), 2);
  const QpResult r = solve_qp(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], -2.0, 1e-8);
}

TEST(Qp, EqualityConstrainedAnalytic) {
  // min ½(x0² + x1²) s.t. x0 + x1 = 2  →  x = (1, 1), y = −1.
  QpProblem p;
  p.h = Matrix::identity(2);
  p.g = Vector(2);
  p.e_mat = Matrix(1, 2);
  p.e_mat(0, 0) = 1;
  p.e_mat(0, 1) = 1;
  p.e_vec = Vector{2};
  p.a_mat = Matrix(0, 2);
  p.b_vec = Vector(0);
  const QpResult r = solve_qp(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(Qp, ActiveInequalityBindsAtBound) {
  // min (x−3)² s.t. x ≤ 1  →  x = 1 with positive multiplier.
  QpProblem p;
  p.h = Matrix(1, 1);
  p.h(0, 0) = 2;
  p.g = Vector{-6};
  p.e_mat = Matrix(0, 1);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(1, 1);
  p.a_mat(0, 0) = 1;
  p.b_vec = Vector{1};
  const QpResult r = solve_qp(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_GT(r.z_ineq[0], 1.0);  // multiplier = 4 analytically
}

TEST(Qp, InactiveInequalityIsIgnored) {
  // min (x−3)² s.t. x ≤ 10  →  unconstrained minimum x = 3.
  QpProblem p;
  p.h = Matrix(1, 1);
  p.h(0, 0) = 2;
  p.g = Vector{-6};
  p.e_mat = Matrix(0, 1);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(1, 1);
  p.a_mat(0, 0) = 1;
  p.b_vec = Vector{10};
  const QpResult r = solve_qp(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 3.0, 1e-6);
  EXPECT_LT(r.z_ineq[0], 1e-5);
}

TEST(Qp, BoxConstrainedProjection) {
  // min ‖x − (5, −5)‖² s.t. −1 ≤ x ≤ 1 (as 4 rows)  →  x = (1, −1).
  QpProblem p;
  p.h = Matrix::identity(2);
  p.h *= 2.0;
  p.g = Vector{-10, 10};
  p.e_mat = Matrix(0, 2);
  p.e_vec = Vector(0);
  p.a_mat = Matrix(4, 2);
  p.a_mat(0, 0) = 1;   // x0 ≤ 1
  p.a_mat(1, 0) = -1;  // −x0 ≤ 1
  p.a_mat(2, 1) = 1;
  p.a_mat(3, 1) = -1;
  p.b_vec = Vector{1, 1, 1, 1};
  const QpResult r = solve_qp(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], -1.0, 1e-6);
}

TEST(Qp, MixedEqualityInequality) {
  // min x0² + x1² + x2²  s.t. x0 + x1 + x2 = 3, x0 ≤ 0.5.
  // Without the bound: x = (1,1,1); with it x0 = 0.5, x1 = x2 = 1.25.
  QpProblem p;
  p.h = Matrix::identity(3);
  p.h *= 2.0;
  p.g = Vector(3);
  p.e_mat = Matrix(1, 3);
  for (std::size_t c = 0; c < 3; ++c) p.e_mat(0, c) = 1;
  p.e_vec = Vector{3};
  p.a_mat = Matrix(1, 3);
  p.a_mat(0, 0) = 1;
  p.b_vec = Vector{0.5};
  const QpResult r = solve_qp(p);
  ASSERT_EQ(r.status, QpStatus::kSolved);
  EXPECT_NEAR(r.x[0], 0.5, 1e-6);
  EXPECT_NEAR(r.x[1], 1.25, 1e-6);
  EXPECT_NEAR(r.x[2], 1.25, 1e-6);
}

TEST(Qp, ValidatesDimensions) {
  QpProblem p;
  p.h = Matrix(2, 3);
  p.g = Vector(2);
  EXPECT_THROW(solve_qp(p), std::invalid_argument);
}

TEST(Qp, RedundantEqualityRowsAreRegularizedAway) {
  // Duplicate equality row makes the KKT matrix singular; the solver must
  // regularize and still return the right answer.
  QpProblem p;
  p.h = Matrix::identity(2);
  p.g = Vector(2);
  p.e_mat = Matrix(2, 2);
  p.e_mat(0, 0) = 1;
  p.e_mat(0, 1) = 1;
  p.e_mat(1, 0) = 1;
  p.e_mat(1, 1) = 1;
  p.e_vec = Vector{2, 2};
  p.a_mat = Matrix(0, 2);
  p.b_vec = Vector(0);
  const QpResult r = solve_qp(p);
  ASSERT_TRUE(r.usable());
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], 1.0, 1e-5);
}

// --- Randomized KKT property sweep ---

class QpKktProperty : public ::testing::TestWithParam<int> {};

TEST_P(QpKktProperty, KktConditionsHold) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.next_u64() % 8);
  const std::size_t me = rng.next_u64() % std::min<std::size_t>(n, 3);
  const std::size_t mi = 1 + rng.next_u64() % (2 * n);

  QpProblem p;
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  p.h = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 1.0;  // strictly convex
  p.g = Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-2, 2);

  // Random feasible point xf; constraints built around it so the problem is
  // guaranteed feasible.
  Vector xf(n);
  for (std::size_t i = 0; i < n; ++i) xf[i] = rng.uniform(-1, 1);

  p.e_mat = Matrix(me, n);
  p.e_vec = Vector(me);
  for (std::size_t r = 0; r < me; ++r) {
    for (std::size_t c = 0; c < n; ++c) p.e_mat(r, c) = rng.uniform(-1, 1);
    p.e_vec[r] = p.e_mat.row(r).dot(xf);
  }
  p.a_mat = Matrix(mi, n);
  p.b_vec = Vector(mi);
  for (std::size_t r = 0; r < mi; ++r) {
    for (std::size_t c = 0; c < n; ++c) p.a_mat(r, c) = rng.uniform(-1, 1);
    p.b_vec[r] = p.a_mat.row(r).dot(xf) + rng.uniform(0.0, 2.0);
  }

  const QpResult r = solve_qp(p);
  ASSERT_EQ(r.status, QpStatus::kSolved) << "seed " << GetParam();
  expect_kkt_certificate(p, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpKktProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace evc::opt
