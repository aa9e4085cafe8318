#include "optim/dense_active_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numerics/kernels.hpp"
#include "util/expect.hpp"

namespace evc::opt {

// ---------------------------------------------------------------------------
// SchurCholesky

void SchurCholesky::ensure_capacity(std::size_t m) {
  if (m <= cap_) return;
  std::size_t grown = std::max<std::size_t>(cap_ * 2, 8);
  grown = std::max(grown, m);
  std::vector<double> fresh(grown * grown, 0.0);
  for (std::size_t r = 0; r < m_; ++r)
    for (std::size_t c = 0; c <= r; ++c) fresh[r * grown + c] = at(r, c);
  l_ = std::move(fresh);
  cap_ = grown;
  v_.resize(cap_);
}

bool SchurCholesky::append(const double* cross, double diag,
                           double singular_tolerance) {
  ensure_capacity(m_ + 1);
  // Forward-substitute L·y = cross into the new bottom row — entry for
  // entry, the arithmetic a fresh factorization would perform for this
  // column of S.
  double* row = &l_[m_ * cap_];
  double sum_sq = 0.0;
  for (std::size_t c = 0; c < m_; ++c) {
    const double* lc = &l_[c * cap_];
    const double y = (cross[c] - num::dot_span(row, lc, c)) / lc[c];
    row[c] = y;
    sum_sq += y * y;
  }
  const double pivot_sq = diag - sum_sq;
  if (!(pivot_sq > singular_tolerance)) return false;
  row[m_] = std::sqrt(pivot_sq);
  ++m_;
  return true;
}

void SchurCholesky::remove(std::size_t k) {
  EVC_EXPECT(k < m_, "SchurCholesky::remove index out of range");
  // Column k below the diagonal is the rank-one correction that restores
  // L22·L22ᵀ once row/column k is cut out: the trailing block satisfies
  // L22_new·L22_newᵀ = L22·L22ᵀ + v·vᵀ.
  const std::size_t tail = m_ - k - 1;
  if (v_.size() < tail) v_.resize(cap_);
  for (std::size_t i = 0; i < tail; ++i) v_[i] = at(k + 1 + i, k);

  for (std::size_t r = k; r + 1 < m_; ++r) {
    double* dst = &l_[r * cap_];
    const double* src = &l_[(r + 1) * cap_];
    for (std::size_t c = 0; c < k; ++c) dst[c] = src[c];
    for (std::size_t c = k; c <= r; ++c) dst[c] = src[c + 1];
  }
  --m_;

  // Positive rank-one update of the trailing block, column by column
  // (Givens-style: each column j mixes with v and shrinks v's support).
  for (std::size_t j = 0; j < tail; ++j) {
    double& ljj = at(k + j, k + j);
    const double r = std::sqrt(ljj * ljj + v_[j] * v_[j]);
    const double c = r / ljj;
    const double s = v_[j] / ljj;
    ljj = r;
    for (std::size_t i = j + 1; i < tail; ++i) {
      double& lij = at(k + i, k + j);
      lij = (lij + s * v_[i]) / c;
      v_[i] = c * v_[i] - s * lij;
    }
  }
}

void SchurCholesky::solve_in_place(double* b) const {
  for (std::size_t r = 0; r < m_; ++r) {
    const double* row = &l_[r * cap_];
    b[r] = (b[r] - num::dot_span(row, b, r)) / row[r];
  }
  for (std::size_t r = m_; r-- > 0;) {
    double acc = b[r];
    for (std::size_t i = r + 1; i < m_; ++i) acc -= at(i, r) * b[i];
    b[r] = acc / at(r, r);
  }
}

// ---------------------------------------------------------------------------
// DenseActiveSetSolver

namespace {

/// Feasibility/optimality margin, scaled per row by max(1, |b_i|):
/// constraint i counts as violated when a_iᵀv − b_i exceeds it, and a
/// working-set multiplier as wrong-signed when below its negative.
constexpr double kTolerance = 1e-9;
/// Schur pivot acceptance, relative to max(1, |diag|) of the appended row:
/// below it the row is treated as dependent on the working set (κ = 0, a
/// pure dual step).
constexpr double kSingularTolerance = 1e-12;

// Row i of A times x in dot_span's bits: from the row's entries when
// `a_short` lists it (see num::ShortRows), through the kernel otherwise.
double row_dot(const num::Matrix& a, const num::ShortRows* a_short,
               std::size_t i, const double* x) {
  if (a_short != nullptr && a_short->is_short(i)) return a_short->dot(i, x);
  return num::dot_span(a.row_ptr(i), x, a.cols());
}

}  // namespace

void DenseActiveSetSolver::solve_seeds(
    const num::CholeskyFactorization& h_chol, const num::Matrix& a,
    const std::vector<std::size_t>& warm_active) {
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  seeds_.clear();
  for (std::size_t idx : warm_active) {
    if (idx >= m) continue;
    const double* row = a.row_ptr(idx);
    std::size_t first = 0;
    while (first < n && row[first] == 0.0) ++first;
    seeds_.push_back({first, seeds_.size(), idx});
  }
  seed_hinv_.resize(seeds_.size(), n);
  // Rows whose first nonzeros lie close together share the shortest
  // forward sweep; a solution's bits do not depend on its group.
  std::sort(seeds_.begin(), seeds_.end(), [](const Seed& x, const Seed& y) {
    return x.first != y.first ? x.first < y.first : x.slot < y.slot;
  });
  seed_x_.resize(4 * n);
  for (std::size_t g = 0; g < seeds_.size(); g += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, seeds_.size() - g);
    std::fill(seed_x_.begin(), seed_x_.end(), 0.0);
    for (std::size_t k = 0; k < lanes; ++k) {
      const double* row = a.row_ptr(seeds_[g + k].row);
      for (std::size_t j = 0; j < n; ++j) seed_x_[4 * j + k] = row[j];
    }
    h_chol.solve4_in_place(seed_x_.data());
    for (std::size_t k = 0; k < lanes; ++k) {
      double* dst = seed_hinv_.row_ptr(seeds_[g + k].slot);
      for (std::size_t j = 0; j < n; ++j) dst[j] = seed_x_[4 * j + k];
    }
  }
}

void DenseActiveSetSolver::remove_at(std::size_t pos) {
  schur_.remove(pos);
  in_active_[active_[pos]] = 0;
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(pos));
  const std::size_t n = hinv_rows_.cols();
  for (std::size_t t = pos; t + 1 < hinv_count_; ++t) {
    double* dst = hinv_rows_.row_ptr(t);
    const double* src = hinv_rows_.row_ptr(t + 1);
    for (std::size_t j = 0; j < n; ++j) dst[j] = src[j];
  }
  --hinv_count_;
}

void DenseActiveSetSolver::ensure_hinv_rows(std::size_t rows,
                                            std::size_t cols) {
  if (hinv_rows_.rows() < rows || hinv_rows_.cols() != cols)
    hinv_rows_.resize(rows, cols);
}

DenseActiveSetOutput DenseActiveSetSolver::solve(
    const num::CholeskyFactorization& h_chol, const num::Matrix& h,
    const num::Matrix& a, const num::ShortRows* a_short, const num::Vector& g,
    const num::Vector& b, const std::vector<std::size_t>& warm_active,
    num::Vector& v, num::Vector& lambda) {
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  EVC_EXPECT(a_short == nullptr || a_short->len.size() == m,
             "dense active set: short-row table does not match A");
  EVC_EXPECT(h_chol.ok() && h_chol.dim() == n,
             "dense active set: H factor missing or wrong dimension");
  EVC_EXPECT(h.rows() == n && h.cols() == n,
             "dense active set: H dimension mismatch");
  EVC_EXPECT(g.size() == n && b.size() == m,
             "dense active set: dimension mismatch");

  DenseActiveSetOutput out;
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t cap = std::min(m, n);
  // Dual-step cap, derived from the problem's size (see the header).
  const std::size_t max_steps = 2 * (m + n);

  // Unconstrained minimizer w = H⁻¹(−g): the anchor every working-set EQP
  // solution is expressed against (g never changes within one solve).
  neg_g_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) neg_g_[j] = -g[j];
  h_chol.solve_into(neg_g_, w_);

  // Seed the working set: H⁻¹a for every candidate row first, four
  // right-hand sides per solve, then the Schur appends in the given order.
  // An index whose append fails (numerically dependent on rows already
  // seeded) is simply skipped — if it really is active, the dual loop
  // re-adds it once a dependency has been dropped.
  active_.clear();
  schur_.reset();
  hinv_count_ = 0;
  in_active_.assign(m, 0);
  ensure_hinv_rows(cap, n);
  solve_seeds(h_chol, a, warm_active);
  std::size_t slot = 0;
  for (std::size_t idx : warm_active) {
    if (idx >= m) continue;
    const double* hinv_a = seed_hinv_.row_ptr(slot++);
    if (in_active_[idx] != 0) continue;
    if (active_.size() >= cap) break;
    const std::size_t nw = active_.size();
    cross_.resize(std::max<std::size_t>(nw, 1));
    for (std::size_t t = 0; t < nw; ++t)
      cross_[t] = row_dot(a, a_short, active_[t], hinv_a);
    const double diag = row_dot(a, a_short, idx, hinv_a);
    const double tol = kSingularTolerance * std::max(std::abs(diag), 1.0);
    if (!schur_.append(cross_.data(), diag, tol)) continue;
    double* dst = hinv_rows_.row_ptr(nw);
    for (std::size_t j = 0; j < n; ++j) dst[j] = hinv_a[j];
    active_.push_back(idx);
    in_active_[idx] = 1;
    hinv_count_ = nw + 1;
  }

  // Phase 0 — prune the seed down to a dual-feasible working set: solve the
  // EQP on W and drop every row whose multiplier comes out negative, until
  // λ_W ≥ 0. W only shrinks, so this terminates, and a correct warm seed
  // passes on the first pass. (v, λ_W) is then the optimum of the relaxed
  // problem that ignores every row outside W — the Goldfarb–Idnani
  // invariant phase 1 maintains.
  for (;;) {
    if (++out.iterations > max_steps) {
      out.status = QpStatus::kMaxIterations;
      return out;
    }
    const std::size_t nw = active_.size();
    lam_w_.assign(nw, 0.0);
    for (std::size_t t = 0; t < nw; ++t)
      lam_w_[t] = row_dot(a, a_short, active_[t], w_.ptr()) - b[active_[t]];
    schur_.solve_in_place(lam_w_.data());
    to_remove_.clear();
    for (std::size_t t = 0; t < nw; ++t)
      if (lam_w_[t] < -kTolerance * std::max(1.0, std::abs(b[active_[t]])))
        to_remove_.push_back(t);
    if (to_remove_.empty()) break;
    for (std::size_t r = to_remove_.size(); r-- > 0;) {
      remove_at(to_remove_[r]);
      lam_w_.erase(lam_w_.begin() +
                   static_cast<std::ptrdiff_t>(to_remove_[r]));
      ++out.set_changes;
    }
  }

  v.assign(n, 0.0);
  num::copy_into(w_, v);
  for (std::size_t t = 0; t < active_.size(); ++t)
    num::axpy_span(-lam_w_[t], hinv_rows_.row_ptr(t), v.ptr(), n);

  // Phase 1 — dual steps: pick the most violated constraint p and raise its
  // multiplier from zero until either p becomes satisfied (full step → add
  // p to W) or a working-set multiplier hits zero first (blocking step →
  // drop that row and retry p against the smaller set). The dual objective
  // strictly increases with every step, so no working set repeats.
  for (;;) {
    resid_.resize(m);
    std::size_t p = m;
    double worst = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      resid_[i] = row_dot(a, a_short, i, v.ptr()) - b[i];
      const double scaled = resid_[i] / std::max(1.0, std::abs(b[i]));
      if (in_active_[i] == 0 && scaled > worst) {
        worst = scaled;
        p = i;
      }
    }
    if (p == m || worst <= kTolerance) break;  // primal feasible

    // H⁻¹a_p once per target constraint; r and κ refresh after every drop.
    const double* a_p = a.row_ptr(p);
    rhs_n_.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) rhs_n_[j] = a_p[j];
    h_chol.solve_into(rhs_n_, hinv_new_);
    const double diag = row_dot(a, a_short, p, hinv_new_.ptr());
    double s_p = resid_[p];
    double lam_p = 0.0;

    for (;;) {
      if (++out.iterations > max_steps) {
        out.status = QpStatus::kMaxIterations;
        return out;
      }
      const std::size_t nw = active_.size();
      cross_.resize(std::max<std::size_t>(nw, 1));
      for (std::size_t t = 0; t < nw; ++t)
        cross_[t] = row_dot(a, a_short, active_[t], hinv_new_.ptr());
      r_w_.assign(cross_.begin(),
                  cross_.begin() + static_cast<std::ptrdiff_t>(nw));
      schur_.solve_in_place(r_w_.data());

      // κ = a_pᵀz with z = H⁻¹a_p − H⁻¹A_Wᵀ·r: the curvature left in p's
      // direction once W's rows are projected out.
      double kappa = diag;
      for (std::size_t t = 0; t < nw; ++t) kappa -= cross_[t] * r_w_[t];
      const bool curved =
          kappa > kSingularTolerance * std::max(std::abs(diag), 1.0);

      // First dual blocking step: the working-set row whose multiplier
      // reaches zero soonest as λ_p grows.
      double mu_block = inf;
      std::size_t blk = nw;
      for (std::size_t t = 0; t < nw; ++t)
        if (r_w_[t] > 0.0) {
          const double cand = lam_w_[t] / r_w_[t];
          if (cand < mu_block) {
            mu_block = cand;
            blk = t;
          }
        }
      const double mu_full = curved ? s_p / kappa : inf;
      const double mu = std::min(mu_full, mu_block);
      if (!(mu < inf)) {
        // No curvature toward p and nothing to drop: the constraints are
        // inconsistent to working precision — the subproblem is infeasible.
        out.status = QpStatus::kNumericalIssue;
        return out;
      }

      // Move along the dual step: v ← v − μ·z, λ_W ← λ_W − μ·r, λ_p += μ.
      num::axpy_span(-mu, hinv_new_.ptr(), v.ptr(), n);
      for (std::size_t t = 0; t < nw; ++t)
        num::axpy_span(mu * r_w_[t], hinv_rows_.row_ptr(t), v.ptr(), n);
      for (std::size_t t = 0; t < nw; ++t) lam_w_[t] -= mu * r_w_[t];
      lam_p += mu;
      s_p -= mu * kappa;

      if (mu_full <= mu_block) {
        // Full step: p is now exactly satisfied. Append it with the cross/
        // diag just computed (κ > 0 guarantees the pivot) and move on.
        if (nw >= cap ||
            !schur_.append(cross_.data(), diag,
                           kSingularTolerance *
                               std::max(std::abs(diag), 1.0))) {
          out.status = QpStatus::kNumericalIssue;
          return out;
        }
        double* dst = hinv_rows_.row_ptr(nw);
        for (std::size_t j = 0; j < n; ++j) dst[j] = hinv_new_[j];
        active_.push_back(p);
        in_active_[p] = 1;
        hinv_count_ = nw + 1;
        lam_w_.push_back(lam_p);
        ++out.set_changes;
        break;
      }
      // Blocked: row blk's multiplier reached zero — drop it and retry p.
      remove_at(blk);
      lam_w_.erase(lam_w_.begin() + static_cast<std::ptrdiff_t>(blk));
      ++out.set_changes;
    }
  }

  // Polish: iterative refinement on the KKT system of the final working set
  //     H·v + g + A_Wᵀλ_W = 0,   A_W·v = b_W.
  // The dual loop reaches the right working set, but its v and λ_W carry
  // rounding error accumulated across every incremental step (each one
  // reuses an up/downdated factor). Refining against H itself restores
  // direct-solve accuracy, which the condensed backend's full-space KKT
  // certificate (tests/condensed_qp_test) holds to 1e-8.
  const std::size_t nw_fin = active_.size();
  for (int pass = 0; pass < 1; ++pass) {
    // Stationarity residual r = −(H·v + g + A_Wᵀλ_W), then t = H⁻¹r.
    rhs_n_.assign(n, 0.0);
    num::gemv_span(1.0, h.ptr(), n, n, n, v.ptr(), rhs_n_.ptr());
    for (std::size_t j = 0; j < n; ++j) rhs_n_[j] = -(rhs_n_[j] + g[j]);
    for (std::size_t t = 0; t < nw_fin; ++t)
      num::axpy_span(-lam_w_[t], a.row_ptr(active_[t]), rhs_n_.ptr(), n);
    h_chol.solve_into(rhs_n_, hinv_new_);
    // δλ = S⁻¹(A_W·t − (b_W − A_W·v)), δv = t − H⁻¹A_Wᵀ·δλ.
    r_w_.assign(nw_fin, 0.0);
    for (std::size_t t = 0; t < nw_fin; ++t) {
      const std::size_t i = active_[t];
      r_w_[t] = row_dot(a, a_short, i, hinv_new_.ptr()) -
                (b[i] - row_dot(a, a_short, i, v.ptr()));
    }
    schur_.solve_in_place(r_w_.data());
    num::axpy_span(1.0, hinv_new_.ptr(), v.ptr(), n);
    for (std::size_t t = 0; t < nw_fin; ++t) {
      num::axpy_span(-r_w_[t], hinv_rows_.row_ptr(t), v.ptr(), n);
      lam_w_[t] += r_w_[t];
    }
  }
  resid_.resize(m);
  for (std::size_t i = 0; i < m; ++i)
    resid_[i] = row_dot(a, a_short, i, v.ptr()) - b[i];

  lambda.assign(m, 0.0);
  for (std::size_t t = 0; t < active_.size(); ++t)
    lambda[active_[t]] = lam_w_[t];

  double kkt = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    kkt = std::max(kkt, resid_[i]);   // primal violation
    kkt = std::max(kkt, -lambda[i]);  // dual negativity
    if (in_active_[i] != 0) kkt = std::max(kkt, std::abs(resid_[i]));
  }
  out.kkt_residual = std::max(kkt, 0.0);
  out.status = QpStatus::kSolved;
  return out;
}

std::size_t DenseActiveSetSolver::bytes() const {
  return schur_.bytes() + hinv_rows_.capacity() * sizeof(double) +
         (w_.capacity() + neg_g_.capacity() + rhs_n_.capacity() +
          hinv_new_.capacity() + resid_.capacity()) *
             sizeof(double) +
         (lam_w_.capacity() + r_w_.capacity() + cross_.capacity()) *
             sizeof(double) +
         (seed_hinv_.capacity() + seed_x_.capacity()) * sizeof(double) +
         seeds_.capacity() * sizeof(Seed) + in_active_.capacity() +
         (active_.capacity() + to_remove_.capacity()) * sizeof(std::size_t);
}

}  // namespace evc::opt
