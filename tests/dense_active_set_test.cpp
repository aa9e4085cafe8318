// Dense active-set solver: the KKT certificate on randomized QPs, the
// optimum of exhaustive active-set enumeration on small ones, warm-start
// behaviour, honest failure, and the incremental Schur-Cholesky
// up/downdates against a from-scratch factorization.
//
// The cross-validation sweep pits two independent methods against each
// other, which catches solver bugs that KKT-residual checks alone can miss.
#include "optim/dense_active_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "optim/qp.hpp"
#include "qp_kkt_certificate.hpp"
#include "util/random.hpp"

namespace {

using namespace evc;

const std::vector<std::size_t> kNoSeed;

struct DenseQp {
  num::Matrix h;
  num::Vector g;
  num::Matrix a;
  num::Vector b;
};

DenseQp random_dense_qp(std::size_t n, std::size_t m, std::uint64_t seed,
                        double b_low = -0.3, double b_high = 1.5) {
  SplitMix64 rng(seed);
  DenseQp qp;
  num::Matrix root(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) root(r, c) = rng.uniform(-1, 1);
  qp.h = root.transposed() * root;
  for (std::size_t i = 0; i < n; ++i) qp.h(i, i) += 1.0;
  qp.g = num::Vector(n);
  for (std::size_t i = 0; i < n; ++i) qp.g[i] = rng.uniform(-2, 2);
  qp.a = num::Matrix(m, n);
  qp.b = num::Vector(m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) qp.a(r, c) = rng.uniform(-1, 1);
    qp.b[r] = rng.uniform(b_low, b_high);
  }
  return qp;
}

opt::QpProblem as_problem(const DenseQp& qp) {
  opt::QpProblem p;
  p.h = qp.h;
  p.g = qp.g;
  p.e_mat = num::Matrix(0, qp.h.rows());
  p.e_vec = num::Vector(0);
  p.a_mat = qp.a;
  p.b_vec = qp.b;
  return p;
}

// --- SchurCholesky vs from-scratch reference ------------------------------

num::Matrix schur_matrix(const num::Matrix& h, const num::Matrix& a,
                         const std::vector<std::size_t>& rows) {
  num::CholeskyFactorization h_chol;
  EXPECT_TRUE(h_chol.factorize(h));
  const std::size_t n = a.cols();
  const std::size_t k = rows.size();
  num::Matrix s(k, k);
  num::Vector ai(n), hai(n);
  std::vector<num::Vector> hinv;
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t j = 0; j < n; ++j) ai[j] = a(rows[t], j);
    h_chol.solve_into(ai, hai);
    hinv.push_back(hai);
  }
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += a(rows[r], j) * hinv[c][j];
      s(r, c) = acc;
    }
  return s;
}

void expect_factor_matches(const opt::SchurCholesky& incremental,
                           const num::Matrix& s, double tol) {
  num::CholeskyFactorization reference;
  ASSERT_TRUE(reference.factorize(s));
  ASSERT_EQ(incremental.dim(), s.rows());
  // Compare L·Lᵀ rather than L entry-wise: after a removal the trailing
  // block's factor is unique only up to the reconstruction it represents.
  const std::size_t k = s.rows();
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c <= r; ++c) {
      double acc = 0.0;
      for (std::size_t j = 0; j <= std::min(r, c); ++j)
        acc += incremental.entry(r, j) * incremental.entry(c, j);
      EXPECT_NEAR(acc, s(r, c), tol) << "S(" << r << "," << c << ")";
    }
}

TEST(SchurCholeskyTest, AppendMatchesFreshFactorization) {
  const std::size_t n = 12;
  const auto qp = random_dense_qp(n, 20, 91);
  num::CholeskyFactorization h_chol;
  ASSERT_TRUE(h_chol.factorize(qp.h));

  opt::SchurCholesky chol;
  std::vector<std::size_t> rows;
  num::Vector ai(n), hai(n);
  for (std::size_t idx : {3u, 11u, 0u, 17u, 8u, 14u}) {
    // cross[t] = a_rows[t]·H⁻¹·a_idx, diag = a_idx·H⁻¹·a_idx.
    for (std::size_t j = 0; j < n; ++j) ai[j] = qp.a(idx, j);
    h_chol.solve_into(ai, hai);
    std::vector<double> cross(rows.size());
    for (std::size_t t = 0; t < rows.size(); ++t) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += qp.a(rows[t], j) * hai[j];
      cross[t] = acc;
    }
    double diag = 0.0;
    for (std::size_t j = 0; j < n; ++j) diag += ai[j] * hai[j];
    ASSERT_TRUE(chol.append(cross.data(), diag, 1e-12));
    rows.push_back(idx);
    expect_factor_matches(chol, schur_matrix(qp.h, qp.a, rows), 1e-9);
  }
}

TEST(SchurCholeskyTest, RemoveMatchesFreshFactorization) {
  const std::size_t n = 12;
  const auto qp = random_dense_qp(n, 20, 92);
  num::CholeskyFactorization h_chol;
  ASSERT_TRUE(h_chol.factorize(qp.h));

  opt::SchurCholesky chol;
  std::vector<std::size_t> rows = {1, 4, 7, 10, 13, 16, 19};
  num::Vector ai(n), hai(n);
  std::vector<std::size_t> added;
  for (std::size_t idx : rows) {
    for (std::size_t j = 0; j < n; ++j) ai[j] = qp.a(idx, j);
    h_chol.solve_into(ai, hai);
    std::vector<double> cross(added.size());
    for (std::size_t t = 0; t < added.size(); ++t) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += qp.a(added[t], j) * hai[j];
      cross[t] = acc;
    }
    double diag = 0.0;
    for (std::size_t j = 0; j < n; ++j) diag += ai[j] * hai[j];
    ASSERT_TRUE(chol.append(cross.data(), diag, 1e-12));
    added.push_back(idx);
  }

  // Remove middle, first, last — each against a from-scratch factor.
  for (std::size_t k : {3u, 0u, 4u}) {
    chol.remove(k);
    added.erase(added.begin() + static_cast<std::ptrdiff_t>(k));
    expect_factor_matches(chol, schur_matrix(qp.h, qp.a, added), 1e-9);
  }
}

// --- Solver vs solver-independent optimality checks ------------------------

TEST(DenseActiveSetTest, SatisfiesKktCertificateOnRandomQps) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::size_t n = 8 + (seed % 5);
    const opt::QpProblem p = as_problem(random_dense_qp(n, 2 * n, seed));
    const opt::QpResult r = opt::solve_dense(p);
    ASSERT_TRUE(r.usable()) << "status " << static_cast<int>(r.status)
                            << " iters " << r.iterations;
    opt::expect_kkt_certificate(p, r);
    EXPECT_LE(r.kkt_residual, 1e-9);
  }
}

// Small problems (n = 2..7, up to 2n rows) reach the degenerate vertices the
// larger sweep above rarely hits, and are small enough to enumerate every
// working set. The name is kept from when the reference was an
// interior-point solve.
class SolverCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(SolverCrossValidation, MatchesInteriorPointOptimum) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 613 + 29);
  const std::size_t n = 2 + rng.next_u64() % 6;
  const std::size_t mi = 1 + rng.next_u64() % (2 * n);

  opt::QpProblem p;
  num::Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  p.h = g.transposed() * g;
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 1.0;
  p.g = num::Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-2, 2);
  p.e_mat = num::Matrix(0, n);
  p.e_vec = num::Vector(0);

  // Constraints built around a random point so the problem is feasible.
  num::Vector xf(n);
  for (std::size_t i = 0; i < n; ++i) xf[i] = rng.uniform(-1, 1);
  p.a_mat = num::Matrix(mi, n);
  p.b_vec = num::Vector(mi);
  for (std::size_t r = 0; r < mi; ++r) {
    for (std::size_t c = 0; c < n; ++c) p.a_mat(r, c) = rng.uniform(-1, 1);
    p.b_vec[r] = p.a_mat.row(r).dot(xf) + rng.uniform(0.1, 2.0);
  }

  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  const double best = opt::enumerated_optimum(p);
  ASSERT_TRUE(std::isfinite(best));

  // Strictly convex → unique optimum: the active set must reach the best
  // enumerated working set's objective, cold and from a seed of every row
  // (which phase 0 must prune down to a dual-feasible set).
  std::vector<std::size_t> every_row(mi);
  for (std::size_t i = 0; i < mi; ++i) every_row[i] = i;
  const std::vector<std::size_t>* seeds[] = {&kNoSeed, &every_row};
  for (const auto* seed : seeds) {
    const opt::QpResult r = opt::solve_dense(p, *seed);
    ASSERT_TRUE(r.usable()) << "seeded rows " << seed->size();
    opt::expect_kkt_certificate(p, r);
    EXPECT_NEAR(r.objective, best, 1e-9 * (1.0 + std::abs(best)))
        << "seeded rows " << seed->size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverCrossValidation,
                         ::testing::Range(0, 40));

TEST(DenseActiveSetTest, WarmStartConfirmsInOneSweep) {
  const std::size_t n = 10, m = 20;
  const auto qp = random_dense_qp(n, m, 7);
  num::CholeskyFactorization h_chol;
  ASSERT_TRUE(h_chol.factorize(qp.h));
  opt::DenseActiveSetSolver solver;
  num::Vector v, lambda;
  const auto cold =
      solver.solve(h_chol, qp.h, qp.a, nullptr, qp.g, qp.b, {}, v, lambda);
  ASSERT_TRUE(cold.usable());
  const std::vector<std::size_t> warm = solver.active_set();

  num::Vector v2, lambda2;
  const auto rewarm = solver.solve(h_chol, qp.h, qp.a, nullptr, qp.g, qp.b,
                                   warm, v2, lambda2);
  ASSERT_TRUE(rewarm.usable());
  EXPECT_EQ(rewarm.iterations, 1u);
  EXPECT_EQ(rewarm.set_changes, 0u);
  // The warm path assembles the working set in seed order, which can differ
  // from the cold path's add order — same set, permuted factor, so agree to
  // tight tolerance rather than bitwise.
  for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(v2[j], v[j], 1e-12);
}

TEST(DenseActiveSetTest, DependentSeedRowIsSkippedBitForBit) {
  // The seeds are solved four at a time before any is appended; a row
  // dependent on the seeds before it must still be skipped, and seeding
  // must still stop at min(m, n) rows. Row 13 = 2·row 2 − row 5, and both
  // lists hold more in-range candidates than n = 6 (and one out of range),
  // so the list with row 13 must give the bits of the list without it.
  const std::size_t n = 6, m = 14;
  auto qp = random_dense_qp(n, m, 23, 0.1, 1.5);
  for (std::size_t c = 0; c < n; ++c)
    qp.a(13, c) = 2.0 * qp.a(2, c) - qp.a(5, c);
  qp.b[13] = 0.5;
  num::CholeskyFactorization h_chol;
  ASSERT_TRUE(h_chol.factorize(qp.h));
  const std::vector<std::size_t> with_dependent = {2, 5, 13, 0, 99, 7, 9,
                                                   11, 3, 8};
  const std::vector<std::size_t> without = {2, 5, 0, 99, 7, 9, 11, 3, 8};

  opt::DenseActiveSetSolver solver_a, solver_b;
  num::Vector v_a, lambda_a, v_b, lambda_b;
  const auto out_a = solver_a.solve(h_chol, qp.h, qp.a, nullptr, qp.g, qp.b,
                                    with_dependent, v_a, lambda_a);
  const auto out_b = solver_b.solve(h_chol, qp.h, qp.a, nullptr, qp.g, qp.b,
                                    without, v_b, lambda_b);
  ASSERT_TRUE(out_a.usable());
  ASSERT_TRUE(out_b.usable());
  EXPECT_EQ(out_a.iterations, out_b.iterations);
  EXPECT_EQ(out_a.set_changes, out_b.set_changes);
  EXPECT_EQ(solver_a.active_set(), solver_b.active_set());
  ASSERT_EQ(v_a.size(), v_b.size());
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v_a[j]),
              std::bit_cast<std::uint64_t>(v_b[j]))
        << "v[" << j << "]";
  ASSERT_EQ(lambda_a.size(), lambda_b.size());
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lambda_a[i]),
              std::bit_cast<std::uint64_t>(lambda_b[i]))
        << "lambda[" << i << "]";
}

TEST(DenseActiveSetTest, UnconstrainedWhenNoRowBinds) {
  const std::size_t n = 6, m = 10;
  // b so large every constraint is slack at the unconstrained minimum.
  const auto qp = random_dense_qp(n, m, 11, 50.0, 60.0);
  num::CholeskyFactorization h_chol;
  ASSERT_TRUE(h_chol.factorize(qp.h));
  opt::DenseActiveSetSolver solver;
  num::Vector v, lambda;
  const auto out =
      solver.solve(h_chol, qp.h, qp.a, nullptr, qp.g, qp.b, {}, v, lambda);
  ASSERT_TRUE(out.usable());
  EXPECT_TRUE(solver.active_set().empty());
  // v = H⁻¹(−g).
  num::Vector neg_g(n), w(n);
  for (std::size_t j = 0; j < n; ++j) neg_g[j] = -qp.g[j];
  h_chol.solve_into(neg_g, w);
  for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(v[j], w[j], 1e-12);
  for (std::size_t i = 0; i < m; ++i) EXPECT_DOUBLE_EQ(lambda[i], 0.0);
}

TEST(DenseActiveSetTest, InfeasibleProblemIsReported) {
  // v ≤ −1 and −v ≤ −1: after adding one row there is no curvature toward
  // the other and nothing to drop, so the solver says so instead of
  // returning a point.
  num::Matrix h(1, 1, 2.0);
  num::CholeskyFactorization h_chol;
  ASSERT_TRUE(h_chol.factorize(h));
  num::Matrix a(2, 1);
  a(0, 0) = 1.0;
  a(1, 0) = -1.0;
  const num::Vector g{0.0};
  const num::Vector b{-1.0, -1.0};
  opt::DenseActiveSetSolver solver;
  num::Vector v, lambda;
  const auto out = solver.solve(h_chol, h, a, nullptr, g, b, {}, v, lambda);
  EXPECT_EQ(out.status, opt::QpStatus::kNumericalIssue);
  EXPECT_FALSE(out.usable());
}

}  // namespace
