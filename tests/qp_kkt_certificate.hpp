// Solver-independent checks of a QP solution, shared by the randomized QP
// sweeps: the KKT certificate (primal and dual feasibility, stationarity,
// complementary slackness) and the optimum found by enumerating every
// working set. Also `solve_dense`, which runs the dense active set on a
// general QpProblem.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "numerics/factorization.hpp"
#include "optim/dense_active_set.hpp"
#include "optim/qp.hpp"

namespace evc::opt {

inline void expect_kkt_certificate(const QpProblem& p, const QpResult& r) {
  // Primal feasibility.
  if (p.num_eq() > 0) {
    EXPECT_LT((p.e_mat * r.x - p.e_vec).norm_inf(), 1e-6);
  }
  const num::Vector ax = p.a_mat * r.x;
  for (std::size_t i = 0; i < p.num_ineq(); ++i)
    EXPECT_LT(ax[i] - p.b_vec[i], 1e-6);
  // Dual feasibility.
  for (std::size_t i = 0; i < p.num_ineq(); ++i)
    EXPECT_GT(r.z_ineq[i], -1e-8);
  // Stationarity.
  num::Vector stat = p.h * r.x + p.g;
  if (p.num_eq() > 0) stat += p.e_mat.transpose_times(r.y_eq);
  stat += p.a_mat.transpose_times(r.z_ineq);
  EXPECT_LT(stat.norm_inf(), 1e-5);
  // Complementary slackness.
  for (std::size_t i = 0; i < p.num_ineq(); ++i)
    EXPECT_LT(std::abs(r.z_ineq[i] * (p.b_vec[i] - ax[i])), 1e-5);
}

/// Solve `p` with the dense active set, equality rows entering as opposing
/// inequality pairs e_iᵀx ≤ e_i and −e_iᵀx ≤ −e_i (a dense random E admits
/// no triangular condensing plan). `seed` lists inequality rows of `p` to
/// seed the working set with. The result's multipliers are mapped back:
/// y_i is the difference of the pair's multipliers.
inline QpResult solve_dense(const QpProblem& p,
                            const std::vector<std::size_t>& seed = {}) {
  p.validate();
  const std::size_t n = p.num_vars(), mi = p.num_ineq(), me = p.num_eq();
  num::Matrix a(mi + 2 * me, n);
  num::Vector b(mi + 2 * me);
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
  num::Vector lambda;
  QpResult r;
  const DenseActiveSetOutput out =
      solver.solve(h_chol, p.h, a, nullptr, p.g, b, seed, r.x, lambda);
  r.status = out.status;
  r.iterations = out.iterations;
  r.kkt_residual = out.kkt_residual;
  if (!out.usable()) return r;
  r.z_ineq = num::Vector(mi);
  for (std::size_t i = 0; i < mi; ++i) r.z_ineq[i] = lambda[i];
  r.y_eq = num::Vector(me);
  for (std::size_t i = 0; i < me; ++i)
    r.y_eq[i] = lambda[mi + 2 * i] - lambda[mi + 2 * i + 1];
  r.objective = 0.5 * r.x.dot(p.h * r.x) + p.g.dot(r.x);
  for (const std::size_t i : solver.active_set())
    if (i < mi) r.active_ineq.push_back(i);
  return r;
}

/// Optimal objective of a strictly convex `p` by exhaustive active-set
/// enumeration: solve the equality-constrained QP of every subset of the
/// inequality rows of size at most n − m_e (with every equality row), and
/// keep the primal-feasible solutions whose inequality multipliers are
/// non-negative. Returns the best objective among them, or +∞ when no
/// subset qualifies. Exponential in the row count — small problems only.
inline double enumerated_optimum(const QpProblem& p) {
  const std::size_t n = p.num_vars(), mi = p.num_ineq(), me = p.num_eq();
  EXPECT_LE(mi, 20u) << "enumeration is for small problems";
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << mi); ++mask) {
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < mi; ++i)
      if ((mask >> i) & 1u) rows.push_back(i);
    if (rows.size() + me > n) continue;
    // KKT system [H Wᵀ; W 0]·(x, μ) = (−g, w) with W = [E; A_rows].
    const std::size_t k = me + rows.size(), dim = n + k;
    num::Matrix kkt(dim, dim);
    num::Vector rhs(dim);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) kkt(r, c) = p.h(r, c);
      rhs[r] = -p.g[r];
    }
    for (std::size_t t = 0; t < k; ++t) {
      for (std::size_t c = 0; c < n; ++c) {
        const double w =
            t < me ? p.e_mat(t, c) : p.a_mat(rows[t - me], c);
        kkt(n + t, c) = w;
        kkt(c, n + t) = w;
      }
      rhs[n + t] = t < me ? p.e_vec[t] : p.b_vec[rows[t - me]];
    }
    num::LuFactorization lu;
    if (!lu.factorize(kkt)) continue;  // dependent working rows
    num::Vector sol;
    lu.solve_into(rhs, sol);
    num::Vector x(n);
    for (std::size_t j = 0; j < n; ++j) x[j] = sol[j];
    bool ok = true;
    for (std::size_t t = me; ok && t < k; ++t) ok = sol[n + t] >= -1e-9;
    const num::Vector ax = p.a_mat * x;
    for (std::size_t i = 0; ok && i < mi; ++i)
      ok = ax[i] - p.b_vec[i] <= 1e-9 * std::max(1.0, std::abs(p.b_vec[i]));
    if (!ok) continue;
    best = std::min(best, 0.5 * x.dot(p.h * x) + p.g.dot(x));
  }
  return best;
}

}  // namespace evc::opt
