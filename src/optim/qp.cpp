#include "optim/qp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "numerics/kernels.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "util/expect.hpp"

namespace evc::opt {

void QpProblem::validate() const {
  const std::size_t n = num_vars();
  EVC_EXPECT(n > 0, "QP with zero variables");
  EVC_EXPECT(h.rows() == n && h.cols() == n, "QP Hessian dimension mismatch");
  if (num_eq() > 0)
    EVC_EXPECT(e_mat.rows() == num_eq() && e_mat.cols() == n,
               "QP equality matrix dimension mismatch");
  else
    EVC_EXPECT(e_mat.rows() == 0, "QP equality matrix/vector mismatch");
  if (num_ineq() > 0)
    EVC_EXPECT(a_mat.rows() == num_ineq() && a_mat.cols() == n,
               "QP inequality matrix dimension mismatch");
  else
    EVC_EXPECT(a_mat.rows() == 0, "QP inequality matrix/vector mismatch");
}

std::string to_string(QpStatus status) {
  switch (status) {
    case QpStatus::kSolved:
      return "solved";
    case QpStatus::kMaxIterations:
      return "max-iterations";
    case QpStatus::kTimeout:
      return "timeout";
    case QpStatus::kNumericalIssue:
      return "numerical-issue";
  }
  return "unknown";
}

SolveStatus solve_status(QpStatus status) {
  switch (status) {
    case QpStatus::kSolved:
      return SolveStatus::kConverged;
    case QpStatus::kMaxIterations:
      return SolveStatus::kMaxIterations;
    case QpStatus::kTimeout:
      return SolveStatus::kTimeout;
    case QpStatus::kNumericalIssue:
      return SolveStatus::kNumericalFailure;
  }
  return SolveStatus::kNumericalFailure;
}

QpPerfCounters& QpPerfCounters::operator+=(const QpPerfCounters& rhs) {
  solves += rhs.solves;
  ipm_iterations += rhs.ipm_iterations;
  factorizations += rhs.factorizations;
  schur_solves += rhs.schur_solves;
  schur_regularizations += rhs.schur_regularizations;
  dense_fallbacks += rhs.dense_fallbacks;
  timeouts += rhs.timeouts;
  warm_starts += rhs.warm_starts;
  workspace_growths += rhs.workspace_growths;
  peak_workspace_bytes = std::max(peak_workspace_bytes,
                                  rhs.peak_workspace_bytes);
  condensed_solves += rhs.condensed_solves;
  condense_rebuilds += rhs.condense_rebuilds;
  active_set_changes += rhs.active_set_changes;
  condensed_fallbacks += rhs.condensed_fallbacks;
  solve_time_ns += rhs.solve_time_ns;
  factorize_time_ns += rhs.factorize_time_ns;
  timeout_time_ns += rhs.timeout_time_ns;
  return *this;
}

std::size_t QpWorkspace::bytes() const {
  const std::size_t vec_elems =
      x_.capacity() + y_.capacity() + z_.capacity() + s_.capacity() +
      best_x_.capacity() + best_y_.capacity() + best_z_.capacity() +
      r_dual_.capacity() + r_eq_.capacity() + r_eq_neg_.capacity() +
      r_ineq_.capacity() + tmp_mi_.capacity() + rhs1_.capacity() +
      rhs_.capacity() + sol_.capacity() + hx_.capacity() +
      dx_aff_.capacity() + dy_aff_.capacity() + ds_aff_.capacity() +
      dz_aff_.capacity() + dx_.capacity() + dy_.capacity() + ds_.capacity() +
      dz_.capacity() + rc_.capacity();
  return (vec_elems + h_reg_.capacity() + k_mat_.capacity() +
          kkt_.capacity() + a_rows_.vals.capacity()) *
             sizeof(double) +
         (a_rows_.row_ptr.capacity() + a_rows_.cols.capacity()) *
             sizeof(std::size_t) +
         schur_.workspace_bytes() + lu_.workspace_bytes();
}

namespace {

// Largest α in (0, 1] with v + α·dv ≥ (1−tau)·v elementwise (v > 0).
double max_step(const num::Vector& v, const num::Vector& dv, double tau) {
  double alpha = 1.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (dv[i] < 0.0) alpha = std::min(alpha, -tau * v[i] / dv[i]);
  }
  return alpha;
}

// Books the wall time of one solve into the workspace counters on every exit
// path. Timed-out solves are additionally booked under timeout_time_ns so the
// `timeouts` count has a matching time axis.
struct SolveTimeGuard {
  QpPerfCounters& counters;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  bool timed_out = false;

  ~SolveTimeGuard() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    counters.solve_time_ns += static_cast<std::uint64_t>(ns);
    if (timed_out) counters.timeout_time_ns += static_cast<std::uint64_t>(ns);
  }
};

}  // namespace

QpResult solve_qp(const QpProblem& problem, const QpOptions& options) {
  QpWorkspace workspace;
  return solve_qp(problem, options, workspace, nullptr);
}

QpResult solve_qp(const QpProblem& problem, const QpOptions& options,
                  QpWorkspace& ws, const QpWarmStart* warm_start) {
  problem.validate();
  const std::size_t n = problem.num_vars();
  const std::size_t me = problem.num_eq();
  const std::size_t mi = problem.num_ineq();

  using Clock = std::chrono::steady_clock;
  const std::size_t bytes_before = ws.bytes();
  ++ws.counters_.solves;
  SolveTimeGuard time_guard{ws.counters_};
  EVC_TRACE_SPAN_VAR(qp_span, "qp.solve");

  // Times one factorization attempt (any path) and books it under
  // factorize_time_ns; the caller still bumps the per-path counters.
  const auto timed_factorize = [&ws](auto&& factorize) {
    EVC_TRACE_SPAN("qp.factorize");
    const Clock::time_point f0 = Clock::now();
    const bool ok = factorize();
    ws.counters_.factorize_time_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - f0)
            .count());
    return ok;
  };

  // Symmetrized, regularized Hessian (reused by residuals and assembly).
  ws.h_reg_.copy_from(problem.h);
  ws.h_reg_.symmetrize();
  for (std::size_t i = 0; i < n; ++i)
    ws.h_reg_(i, i) += options.regularization;

  // Compressed-sparse-row view of A: MPC inequality rows are bounds and
  // small couplings (1–3 nonzeros), so the barrier assembly and every A·v
  // product below run over nonzeros only.
  ws.a_rows_.assign(problem.a_mat);
  const std::vector<std::size_t>& a_ptr = ws.a_rows_.row_ptr;
  const std::vector<std::size_t>& a_col = ws.a_rows_.cols;
  const std::vector<double>& a_val = ws.a_rows_.vals;

  // row-sparse products over the CSR view
  const auto csr_dot_row = [&](std::size_t r, const num::Vector& v) {
    double acc = 0.0;
    for (std::size_t k = a_ptr[r]; k < a_ptr[r + 1]; ++k)
      acc += a_val[k] * v[a_col[k]];
    return acc;
  };
  // out += Aᵀ·w
  const auto csr_add_at = [&](const num::Vector& w, num::Vector& out) {
    for (std::size_t r = 0; r < mi; ++r) {
      const double wr = w[r];
      if (wr == 0.0) continue;
      for (std::size_t k = a_ptr[r]; k < a_ptr[r + 1]; ++k)
        out[a_col[k]] += a_val[k] * wr;
    }
  };

  // r_dual = H x + g + Eᵀy + Aᵀz; r_eq = E x − e; r_ineq = A x + s − b.
  const auto compute_residuals = [&](const num::Vector& x,
                                     const num::Vector& y,
                                     const num::Vector& z,
                                     const num::Vector& s) {
    num::gemv(1.0, ws.h_reg_, x, 0.0, ws.r_dual_);
    ws.r_dual_ += problem.g;
    if (me > 0) num::gemv_t(1.0, problem.e_mat, y, 1.0, ws.r_dual_);
    if (mi > 0) csr_add_at(z, ws.r_dual_);
    if (me > 0) {
      num::gemv(1.0, problem.e_mat, x, 0.0, ws.r_eq_);
      ws.r_eq_ -= problem.e_vec;
    } else {
      ws.r_eq_.assign(0, 0.0);
    }
    ws.r_ineq_.resize(mi);
    for (std::size_t r = 0; r < mi; ++r)
      ws.r_ineq_[r] = csr_dot_row(r, x) + s[r] - problem.b_vec[r];
  };
  const auto residual_inf = [&]() {
    return std::max({ws.r_dual_.norm_inf(),
                     ws.r_eq_.empty() ? 0.0 : ws.r_eq_.norm_inf(),
                     ws.r_ineq_.empty() ? 0.0 : ws.r_ineq_.norm_inf()});
  };
  const auto objective_of = [&](const num::Vector& x) {
    num::gemv(1.0, problem.h, x, 0.0, ws.hx_);
    return 0.5 * x.dot(ws.hx_) + problem.g.dot(x);
  };
  const auto finish_workspace_counters = [&]() {
    const std::size_t bytes_after = ws.bytes();
    if (bytes_after > bytes_before) ++ws.counters_.workspace_growths;
    ws.counters_.peak_workspace_bytes =
        std::max(ws.counters_.peak_workspace_bytes, bytes_after);
  };

  QpResult result;
  result.x = num::Vector(n);
  result.y_eq = num::Vector(me);
  result.z_ineq = num::Vector(mi);

  // ---- Pure equality-constrained (or unconstrained) QP: one KKT solve ----
  if (mi == 0) {
    // Block elimination first: Cholesky of the regularized Hessian + Schur
    // complement in the multipliers.
    ++ws.counters_.factorizations;
    if (timed_factorize(
            [&] { return ws.schur_.factorize(ws.h_reg_, problem.e_mat); })) {
      ++ws.counters_.schur_solves;
      if (ws.schur_.regularized()) ++ws.counters_.schur_regularizations;
      ws.rhs1_.resize(n);
      for (std::size_t i = 0; i < n; ++i) ws.rhs1_[i] = -problem.g[i];
      ws.schur_.solve(ws.rhs1_, problem.e_vec, ws.dx_, ws.dy_);
      for (std::size_t i = 0; i < n; ++i) result.x[i] = ws.dx_[i];
      for (std::size_t i = 0; i < me; ++i) result.y_eq[i] = ws.dy_[i];
      result.status = QpStatus::kSolved;
      result.objective = objective_of(result.x);
      compute_residuals(result.x, result.y_eq, result.z_ineq, result.z_ineq);
      result.kkt_residual = residual_inf();
      finish_workspace_counters();
      return result;
    }

    // Dense fallback with regularize-and-retry (e.g. redundant equality
    // rows make the Schur complement singular beyond its internal repair).
    ws.kkt_.resize(n + me, n + me);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) ws.kkt_(r, c) = ws.h_reg_(r, c);
    for (std::size_t r = 0; r < me; ++r)
      for (std::size_t c = 0; c < n; ++c) {
        ws.kkt_(n + r, c) = problem.e_mat(r, c);
        ws.kkt_(c, n + r) = problem.e_mat(r, c);
      }
    ws.rhs_.resize(n + me);
    for (std::size_t i = 0; i < n; ++i) ws.rhs_[i] = -problem.g[i];
    for (std::size_t i = 0; i < me; ++i) ws.rhs_[n + i] = problem.e_vec[i];

    double delta = options.regularization;
    for (int attempt = 0; attempt < 6; ++attempt) {
      ++ws.counters_.factorizations;
      ++ws.counters_.dense_fallbacks;
      if (timed_factorize([&] { return ws.lu_.factorize(ws.kkt_); })) {
        ws.lu_.solve_into(ws.rhs_, ws.sol_);
        for (std::size_t i = 0; i < n; ++i) result.x[i] = ws.sol_[i];
        for (std::size_t i = 0; i < me; ++i) result.y_eq[i] = ws.sol_[n + i];
        result.status = QpStatus::kSolved;
        result.objective = objective_of(result.x);
        compute_residuals(result.x, result.y_eq, result.z_ineq,
                          result.z_ineq);
        result.kkt_residual = residual_inf();
        finish_workspace_counters();
        return result;
      }
      delta = std::max(delta * 100.0, 1e-10);
      for (std::size_t i = 0; i < n; ++i) ws.kkt_(i, i) += delta;
      for (std::size_t i = 0; i < me; ++i) ws.kkt_(n + i, n + i) -= delta;
    }
    result.status = QpStatus::kNumericalIssue;
    finish_workspace_counters();
    return result;
  }

  // ---- Interior point (Mehrotra predictor-corrector) ----
  const rt::Deadline deadline =
      rt::Deadline::from_budget_s(options.time_budget_s);
  bool hard_failure = false;
  bool timed_out = false;
  num::Vector& x = ws.x_;
  num::Vector& y = ws.y_;
  num::Vector& z = ws.z_;
  num::Vector& s = ws.s_;
  x.assign(n, 0.0);
  y.assign(me, 0.0);
  z.assign(mi, 1.0);
  s.resize(mi);
  // Start slacks at a comfortable distance from the boundary.
  for (std::size_t i = 0; i < mi; ++i)
    s[i] = std::max(1.0, std::abs(problem.b_vec[i]));

  // Warm start: seed the primal from the previous solution and clamp the
  // multipliers/slacks into the interior — an accurate seed starts the
  // barrier nearly converged; a stale one is no worse than a cold start.
  if (warm_start != nullptr && warm_start->x.size() == n &&
      warm_start->y_eq.size() == me && warm_start->z_ineq.size() == mi) {
    ++ws.counters_.warm_starts;
    for (std::size_t i = 0; i < n; ++i) x[i] = warm_start->x[i];
    for (std::size_t i = 0; i < me; ++i) y[i] = warm_start->y_eq[i];
    for (std::size_t i = 0; i < mi; ++i)
      z[i] = std::max(warm_start->z_ineq[i], 1e-3);
    for (std::size_t i = 0; i < mi; ++i) {
      const double slack = problem.b_vec[i] - csr_dot_row(i, x);
      s[i] = std::max(slack, 1e-3 * std::max(1.0, std::abs(problem.b_vec[i])));
    }
  }

  const double scale =
      std::max({1.0, problem.g.norm_inf(), problem.b_vec.norm_inf(),
                me > 0 ? problem.e_vec.norm_inf() : 0.0});

  // Track the best iterate seen so that divergence still returns something
  // usable to the SQP line search.
  num::copy_into(x, ws.best_x_);
  num::copy_into(y, ws.best_y_);
  num::copy_into(z, ws.best_z_);
  double best_residual = std::numeric_limits<double>::infinity();

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Deadline watchdog: checked between iterations so the loop always
    // leaves a coherent (x, y, z, s) behind — never a half-applied step.
    if (iter > 0 && deadline.expired()) {
      timed_out = true;
      ++ws.counters_.timeouts;
      break;
    }
    result.iterations = iter + 1;
    ++ws.counters_.ipm_iterations;
    compute_residuals(x, y, z, s);
    const double mu = s.dot(z) / static_cast<double>(mi);
    result.kkt_residual = residual_inf();

    if (!std::isfinite(result.kkt_residual) || !std::isfinite(mu)) {
      // The iteration diverged (ill-conditioned scaling matrix); fall back
      // to the best iterate recorded so far.
      hard_failure = true;
      break;
    }
    const double progress = result.kkt_residual + mu;
    if (progress < best_residual) {
      best_residual = progress;
      num::copy_into(x, ws.best_x_);
      num::copy_into(y, ws.best_y_);
      num::copy_into(z, ws.best_z_);
    }

    if (result.kkt_residual <= options.tolerance * scale &&
        mu <= options.tolerance * scale) {
      result.status = QpStatus::kSolved;
      break;
    }

    // Barrier-augmented Hessian K = H + AᵀDA, D = diag(z/s). Only the
    // upper triangle is accumulated (K is symmetric); the CSR row view
    // makes each row's contribution O(nnz²) instead of O(n·nnz).
    ws.k_mat_.copy_from(ws.h_reg_);
    for (std::size_t r = 0; r < mi; ++r) {
      // Clamp the barrier scaling: an almost-converged active constraint
      // would otherwise overflow the KKT system and poison the
      // factorization.
      const double d = std::clamp(z[r] / s[r], 1e-10, 1e10);
      for (std::size_t ki = a_ptr[r]; ki < a_ptr[r + 1]; ++ki) {
        const double dai = d * a_val[ki];
        const std::size_t ci = a_col[ki];
        for (std::size_t kj = ki; kj < a_ptr[r + 1]; ++kj)
          ws.k_mat_(ci, a_col[kj]) += dai * a_val[kj];
      }
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) ws.k_mat_(j, i) = ws.k_mat_(i, j);

    // Factorize the reduced KKT [K, Eᵀ; E, 0] by block elimination; if K is
    // not numerically SPD (extreme barrier scaling), fall back to a dense
    // LU of the full KKT matrix, regularizing once more if needed.
    ++ws.counters_.factorizations;
    bool use_schur = timed_factorize(
        [&] { return ws.schur_.factorize(ws.k_mat_, problem.e_mat); });
    if (use_schur) {
      ++ws.counters_.schur_solves;
      if (ws.schur_.regularized()) ++ws.counters_.schur_regularizations;
    } else {
      ws.kkt_.resize(n + me, n + me);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) ws.kkt_(r, c) = ws.k_mat_(r, c);
      for (std::size_t r = 0; r < me; ++r)
        for (std::size_t c = 0; c < n; ++c) {
          ws.kkt_(n + r, c) = problem.e_mat(r, c);
          ws.kkt_(c, n + r) = problem.e_mat(r, c);
        }
      ++ws.counters_.dense_fallbacks;
      if (!timed_factorize([&] { return ws.lu_.factorize(ws.kkt_); })) {
        for (std::size_t i = 0; i < n; ++i) ws.kkt_(i, i) += 1e-8;
        for (std::size_t i = 0; i < me; ++i) ws.kkt_(n + i, n + i) -= 1e-8;
        ++ws.counters_.factorizations;
        ++ws.counters_.dense_fallbacks;
        if (!timed_factorize([&] { return ws.lu_.factorize(ws.kkt_); })) {
          hard_failure = true;
          break;
        }
      }
    }

    // Newton step for the perturbed KKT system with complementarity target
    // rc: Z·ds + S·dz = rc − Z·S·e. Eliminating ds = −r_i − A·dx and
    // dz = D·A·dx + (rc − z∘s + z∘r_i)/s gives the reduced system
    // factorized above. Writes into caller-provided buffers — no
    // allocation at steady state.
    const auto solve_newton = [&](const num::Vector& rc, num::Vector& dx,
                                  num::Vector& dy, num::Vector& ds,
                                  num::Vector& dz) {
      ws.tmp_mi_.resize(mi);
      for (std::size_t i = 0; i < mi; ++i)
        ws.tmp_mi_[i] =
            (rc[i] - z[i] * s[i] + z[i] * ws.r_ineq_[i]) / s[i];
      ws.rhs1_.resize(n);
      for (std::size_t i = 0; i < n; ++i) ws.rhs1_[i] = -ws.r_dual_[i];
      for (std::size_t r = 0; r < mi; ++r) {
        const double wr = ws.tmp_mi_[r];
        if (wr == 0.0) continue;
        for (std::size_t k = a_ptr[r]; k < a_ptr[r + 1]; ++k)
          ws.rhs1_[a_col[k]] -= a_val[k] * wr;
      }
      if (use_schur) {
        ws.r_eq_neg_.resize(me);
        for (std::size_t i = 0; i < me; ++i) ws.r_eq_neg_[i] = -ws.r_eq_[i];
        ws.schur_.solve(ws.rhs1_, ws.r_eq_neg_, dx, dy);
      } else {
        ws.rhs_.resize(n + me);
        for (std::size_t i = 0; i < n; ++i) ws.rhs_[i] = ws.rhs1_[i];
        for (std::size_t i = 0; i < me; ++i) ws.rhs_[n + i] = -ws.r_eq_[i];
        ws.lu_.solve_into(ws.rhs_, ws.sol_);
        dx.resize(n);
        for (std::size_t i = 0; i < n; ++i) dx[i] = ws.sol_[i];
        dy.resize(me);
        for (std::size_t i = 0; i < me; ++i) dy[i] = ws.sol_[n + i];
      }
      ds.resize(mi);
      for (std::size_t r = 0; r < mi; ++r)
        ds[r] = -ws.r_ineq_[r] - csr_dot_row(r, dx);
      dz.resize(mi);
      for (std::size_t i = 0; i < mi; ++i)
        dz[i] = (rc[i] - z[i] * s[i] - z[i] * ds[i]) / s[i];
    };

    // Predictor (affine): rc = 0 target → drive ZSe to 0.
    ws.rc_.assign(mi, 0.0);
    solve_newton(ws.rc_, ws.dx_aff_, ws.dy_aff_, ws.ds_aff_, ws.dz_aff_);
    const double a_s_aff = max_step(s, ws.ds_aff_, 1.0);
    const double a_z_aff = max_step(z, ws.dz_aff_, 1.0);
    const double alpha_aff = std::min(a_s_aff, a_z_aff);
    double mu_aff = 0.0;
    for (std::size_t i = 0; i < mi; ++i)
      mu_aff += (s[i] + alpha_aff * ws.ds_aff_[i]) *
                (z[i] + alpha_aff * ws.dz_aff_[i]);
    mu_aff /= static_cast<double>(mi);
    const double sigma = std::pow(std::clamp(mu_aff / mu, 0.0, 1.0), 3);

    // Corrector: rc = σμe − ΔS_aff·ΔZ_aff·e.
    for (std::size_t i = 0; i < mi; ++i)
      ws.rc_[i] = sigma * mu - ws.ds_aff_[i] * ws.dz_aff_[i];
    solve_newton(ws.rc_, ws.dx_, ws.dy_, ws.ds_, ws.dz_);

    const double tau = 0.995;
    const double alpha = std::min(
        {max_step(s, ws.ds_, tau), max_step(z, ws.dz_, tau), 1.0});

    x.add_scaled(alpha, ws.dx_);
    if (me > 0) y.add_scaled(alpha, ws.dy_);
    s.add_scaled(alpha, ws.ds_);
    z.add_scaled(alpha, ws.dz_);
  }

  if (result.status != QpStatus::kSolved) {
    // Hand back the best iterate, not the possibly-diverged last one. A
    // near-converged iterate counts as solved: the typical "failure" mode
    // is the barrier matrix blowing up the KKT factorization one iteration
    // *after* the iterate has effectively converged.
    num::copy_into(ws.best_x_, x);
    num::copy_into(ws.best_y_, y);
    num::copy_into(ws.best_z_, z);
    result.kkt_residual = best_residual;
    if (best_residual <= 1e-5 * scale)
      result.status = QpStatus::kSolved;
    else if (hard_failure)
      result.status = QpStatus::kNumericalIssue;
    else
      result.status =
          timed_out ? QpStatus::kTimeout : QpStatus::kMaxIterations;
  }
  time_guard.timed_out = result.status == QpStatus::kTimeout;
  qp_span.arg("iterations", static_cast<double>(result.iterations));
  for (std::size_t i = 0; i < n; ++i) result.x[i] = x[i];
  for (std::size_t i = 0; i < me; ++i) result.y_eq[i] = y[i];
  for (std::size_t i = 0; i < mi; ++i) result.z_ineq[i] = z[i];
  result.objective = objective_of(x);
  finish_workspace_counters();
  return result;
}

}  // namespace evc::opt
