// Unit + property tests for the SQP solver on analytic and randomized
// bilinear problems (the MPC's equality constraints are bilinear, so that is
// the class we stress).
#include <gtest/gtest.h>

#include <cmath>

#include "optim/condensed_qp.hpp"
#include "optim/sqp.hpp"
#include "util/random.hpp"

namespace evc::opt {
namespace {

using num::Matrix;
using num::Vector;

/// Condensing plan for a problem of `n` variables with one equality row,
/// solved for variable 0.
CondensingPlan first_column_plan(std::size_t n) {
  CondensingPlan plan;
  plan.num_vars = n;
  plan.dep_rows = {0};
  plan.dep_cols = {0};
  plan.finalize();
  return plan;
}

/// min ‖x − target‖² s.t. x0·x1 = p (bilinear equality), optional box.
class BilinearProblem : public NlpProblem {
 public:
  BilinearProblem(Vector target, double product, double box = 0.0)
      : target_(std::move(target)),
        product_(product),
        plan_(first_column_plan(target_.size())) {
    const std::size_t n = target_.size();
    if (box > 0.0) {
      a_ = Matrix(2 * n, n);
      b_ = Vector(2 * n);
      for (std::size_t i = 0; i < n; ++i) {
        a_(2 * i, i) = 1.0;
        b_[2 * i] = box;
        a_(2 * i + 1, i) = -1.0;
        b_[2 * i + 1] = box;
      }
    } else {
      a_ = Matrix(0, n);
      b_ = Vector(0);
    }
  }

  std::size_t num_vars() const override { return target_.size(); }
  std::size_t num_eq() const override { return 1; }

  double cost(const Vector& x) const override {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target_[i];
      acc += d * d;
    }
    return acc;
  }
  Vector cost_gradient(const Vector& x) const override {
    Vector g(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) g[i] = 2.0 * (x[i] - target_[i]);
    return g;
  }
  Matrix cost_hessian(const Vector&) const override {
    Matrix h = Matrix::identity(target_.size());
    h *= 2.0;
    return h;
  }
  Vector eq_constraints(const Vector& x) const override {
    return Vector{x[0] * x[1] - product_};
  }
  void eq_jacobian(const Vector& x, Matrix& j) const override {
    j.resize(1, x.size());
    j(0, 0) = x[1];
    j(0, 1) = x[0];
  }
  const Matrix& ineq_matrix() const override { return a_; }
  const Vector& ineq_vector() const override { return b_; }
  /// The product row is solved for x0 (pivot x1).
  const CondensingPlan* condensing_plan() const override { return &plan_; }

 private:
  Vector target_;
  double product_;
  CondensingPlan plan_;
  Matrix a_;
  Vector b_;
};

TEST(Sqp, SolvesSymmetricBilinearProblem) {
  // Target (2,2), constraint x0·x1 = 1 → by symmetry x0 = x1 = 1 with
  // optimal cost 2. The reduced Hessian vanishes exactly at the optimum
  // (quartic valley), so assert on cost and feasibility, not position.
  BilinearProblem p(Vector{2, 2}, 1.0);
  SqpSolver solver;
  const SqpResult r = solver.solve(p, Vector{1.5, 0.5});
  ASSERT_TRUE(r.usable());
  EXPECT_LT(r.constraint_violation, 1e-5);
  EXPECT_NEAR(r.cost, 2.0, 1e-3);
}

TEST(Sqp, RespectsBoxConstraints) {
  // Target (4,4) with x0·x1 = 1 and |x_i| ≤ 3: symmetric optimum stays x=(1,1)
  // (the box only truncates the target pull).
  BilinearProblem p(Vector{4, 4}, 1.0, 3.0);
  SqpSolver solver;
  const SqpResult r = solver.solve(p, Vector{2.0, 0.5});
  ASSERT_TRUE(r.usable());
  EXPECT_LT(r.constraint_violation, 1e-6);
  EXPECT_LE(std::abs(r.x[0]), 3.0 + 1e-6);
  EXPECT_LE(std::abs(r.x[1]), 3.0 + 1e-6);
  EXPECT_NEAR(r.x[0] * r.x[1], 1.0, 1e-6);
}

TEST(Sqp, ConvergesFromFeasibleStart) {
  BilinearProblem p(Vector{2, 2}, 1.0);
  SqpSolver solver;
  const SqpResult r = solver.solve(p, Vector{1.0, 1.0});
  ASSERT_EQ(r.status, SqpStatus::kConverged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
}

TEST(Sqp, RejectsWrongStartDimension) {
  BilinearProblem p(Vector{2, 2}, 1.0);
  SqpSolver solver;
  EXPECT_THROW(solver.solve(p, Vector{1.0}), std::invalid_argument);
}

/// Pure quadratic with linear equality — SQP must converge in one step.
class LinearEqualityProblem : public NlpProblem {
 public:
  LinearEqualityProblem() : a_(0, 2), b_(0), plan_(first_column_plan(2)) {}
  std::size_t num_vars() const override { return 2; }
  std::size_t num_eq() const override { return 1; }
  double cost(const Vector& x) const override { return x.dot(x); }
  Vector cost_gradient(const Vector& x) const override { return 2.0 * x; }
  Matrix cost_hessian(const Vector&) const override {
    Matrix h = Matrix::identity(2);
    h *= 2.0;
    return h;
  }
  Vector eq_constraints(const Vector& x) const override {
    return Vector{x[0] + x[1] - 2.0};
  }
  void eq_jacobian(const Vector&, Matrix& j) const override {
    j.resize(1, 2);
    j(0, 0) = 1;
    j(0, 1) = 1;
  }
  const Matrix& ineq_matrix() const override { return a_; }
  const Vector& ineq_vector() const override { return b_; }
  const CondensingPlan* condensing_plan() const override { return &plan_; }

 private:
  Matrix a_;
  Vector b_;
  CondensingPlan plan_;
};

TEST(Sqp, LinearProblemConvergesFast) {
  LinearEqualityProblem p;
  SqpSolver solver;
  const SqpResult r = solver.solve(p, Vector{5.0, -3.0});
  ASSERT_EQ(r.status, SqpStatus::kConverged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
  EXPECT_NEAR(r.x[1], 1.0, 1e-7);
  EXPECT_LE(r.iterations, 4u);
}

/// The linear-equality problem with two contradictory bounds, x1 ≤ −1 and
/// −x1 ≤ −1: every QP subproblem is infeasible.
class InfeasibleBoundsProblem : public LinearEqualityProblem {
 public:
  InfeasibleBoundsProblem() : a_(2, 2), b_{-1.0, -1.0} {
    a_(0, 1) = 1.0;
    a_(1, 1) = -1.0;
  }
  const Matrix& ineq_matrix() const override { return a_; }
  const Vector& ineq_vector() const override { return b_; }

 private:
  Matrix a_;
  Vector b_;
};

TEST(Sqp, InfeasibleSubproblemReportsQpFailure) {
  // No step solves the first subproblem, so none is taken: the solve ends
  // with kQpFailure at the start point and hands no working set on. The
  // subproblem was condensed, so it counts as a factorization but not as a
  // solve.
  InfeasibleBoundsProblem p;
  SqpSolver solver;
  const SqpResult r = solver.solve(p, Vector{5.0, -3.0});
  EXPECT_EQ(r.status, SqpStatus::kQpFailure);
  EXPECT_FALSE(r.usable());
  EXPECT_EQ(solve_status(r.status), SolveStatus::kNumericalFailure);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(r.x[0], 5.0);
  EXPECT_EQ(r.x[1], -3.0);
  EXPECT_TRUE(r.active_ineq.empty());
  EXPECT_EQ(solver.qp_counters().solves, 0u);
  EXPECT_EQ(solver.qp_counters().factorizations, 1u);
}

class SqpRandomized : public ::testing::TestWithParam<int> {};

TEST_P(SqpRandomized, FeasibilityAndDescentOnBilinearFamily) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const double product = rng.uniform(0.3, 2.5);
  Vector target{rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)};
  BilinearProblem p(target, product, 5.0);
  Vector x0{rng.uniform(0.4, 2.0), rng.uniform(0.4, 2.0)};

  SqpSolver solver;
  const SqpResult r = solver.solve(p, x0);
  ASSERT_TRUE(r.usable()) << "seed " << GetParam();
  // Converged to a feasible point…
  EXPECT_LT(r.constraint_violation, 1e-5) << "seed " << GetParam();
  // …that is no worse than the projection of the start onto the constraint
  // (sanity: SQP should not increase cost relative to a crude feasible
  // point derived from x0).
  Vector crude{x0[0], product / x0[0]};
  EXPECT_LE(r.cost, p.cost(crude) + 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqpRandomized, ::testing::Range(0, 30));

}  // namespace
}  // namespace evc::opt
