#include "numerics/schur_kkt.hpp"

#include <algorithm>

#include "numerics/simd.hpp"
#include "util/expect.hpp"

namespace evc::num {

bool SchurKktSolver::factorize(const Matrix& k, const Matrix& e) {
  EVC_EXPECT(k.rows() == k.cols(), "SchurKkt: K must be square");
  EVC_EXPECT(e.cols() == k.rows() || e.rows() == 0,
             "SchurKkt: E column count must match K");
  n_ = k.rows();
  me_ = e.rows();
  ok_ = false;
  s_via_lu_ = false;
  regularized_ = false;

  if (!chol_k_.factorize(k)) return false;

  if (me_ == 0) {
    ok_ = true;
    return true;
  }

  // Wᵀ = K⁻¹·Eᵀ, all me right-hand sides at once: the block triangular
  // solves sweep rows of L with the inner loop contiguous across the rhs
  // columns, which is ~an order of magnitude faster than me single-rhs
  // back-substitutions (those stride down a column of L per element).
  wt_.resize(n_, me_);
  for (std::size_t c = 0; c < n_; ++c)
    for (std::size_t j = 0; j < me_; ++j) wt_(c, j) = e(j, c);
  chol_k_.forward_block_in_place(wt_);  // wt_ is now Y = L⁻¹·Eᵀ
  // S = E·K⁻¹·Eᵀ = YᵀY: accumulate rank-1 updates from the half-solved
  // block before finishing the backward sweep — upper triangle, mirrored.
  s_.resize(me_, me_);
  for (std::size_t i = 0; i < me_; ++i)
    for (std::size_t j = 0; j < me_; ++j) s_(i, j) = 0.0;
  const simd::KernelTable& tbl = simd::active();
  for (std::size_t c = 0; c < n_; ++c) {
    const double* yc = wt_.row_ptr(c);
    for (std::size_t i = 0; i < me_; ++i) {
      const double yci = yc[i];
      if (yci == 0.0) continue;
      // Rank-1 row update along the contiguous tail j ∈ [i, me).
      tbl.axpy(yci, yc + i, s_.row_ptr(i) + i, me_ - i);
    }
  }
  for (std::size_t i = 0; i < me_; ++i)
    for (std::size_t j = i + 1; j < me_; ++j) s_(j, i) = s_(i, j);
  chol_k_.backward_block_in_place(wt_);  // wt_ is now K⁻¹·Eᵀ

  if (chol_s_.factorize(s_)) {
    ok_ = true;
    return true;
  }
  // S singular or slightly indefinite through roundoff (e.g. redundant
  // equality rows): dual-regularize once, then fall back to pivoted LU.
  double shift = std::max(1e-12 * s_.norm_max(), 1e-12);
  for (std::size_t i = 0; i < me_; ++i) s_(i, i) += shift;
  regularized_ = true;
  if (chol_s_.factorize(s_)) {
    ok_ = true;
    return true;
  }
  if (lu_s_.factorize(s_)) {
    s_via_lu_ = true;
    ok_ = true;
    return true;
  }
  return false;
}

void SchurKktSolver::solve(const Vector& r1, const Vector& r2, Vector& dx,
                           Vector& dy) const {
  EVC_EXPECT(ok_, "SchurKkt: solve without a successful factorization");
  EVC_EXPECT(r1.size() == n_ && r2.size() == me_,
             "SchurKkt: solve dimension mismatch");

  // t = K⁻¹·r1.
  chol_k_.solve_into(r1, t_);

  if (me_ == 0) {
    dx.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) dx[i] = t_[i];
    dy.resize(0);
    return;
  }

  // rhs_y = E·t − r2, but E is not stored here — use Wᵀ instead:
  // E·t = E·K⁻¹·r1 = (K⁻¹Eᵀ)ᵀ·r1 (symmetric K). Sweep rows of wt_ so the
  // inner loop is contiguous.
  rhs_y_.resize(me_);
  for (std::size_t j = 0; j < me_; ++j) rhs_y_[j] = -r2[j];
  const simd::KernelTable& tbl = simd::active();
  for (std::size_t c = 0; c < n_; ++c) {
    const double rc = r1[c];
    if (rc == 0.0) continue;
    tbl.axpy(rc, wt_.row_ptr(c), rhs_y_.ptr(), me_);
  }

  dy.resize(me_);
  if (s_via_lu_)
    lu_s_.solve_into(rhs_y_, dy);
  else
    chol_s_.solve_into(rhs_y_, dy);

  // dx = K⁻¹·(r1 − Eᵀ·dy) = t − (K⁻¹·Eᵀ)·dy — row·vector dots over wt_.
  dx.resize(n_);
  for (std::size_t c = 0; c < n_; ++c)
    dx[c] = t_[c] - tbl.dot(wt_.row_ptr(c), dy.ptr(), me_);
}

std::size_t SchurKktSolver::workspace_bytes() const {
  return (wt_.capacity() + s_.capacity() + t_.capacity() +
          rhs_y_.capacity()) *
             sizeof(double) +
         chol_k_.workspace_bytes() + chol_s_.workspace_bytes() +
         lu_s_.workspace_bytes();
}

}  // namespace evc::num
