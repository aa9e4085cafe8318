#include "numerics/factorization.hpp"

#include <cmath>
#include <stdexcept>

#include "numerics/simd.hpp"
#include "util/expect.hpp"

namespace evc::num {

namespace {
constexpr double kPivotTol = 1e-13;
}

bool LuFactorization::factorize(const Matrix& a) {
  EVC_EXPECT(a.rows() == a.cols(), "LU requires a square matrix");
  n_ = a.rows();
  lu_.copy_from(a);
  perm_.resize(n_);
  perm_sign_ = 1;
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  // Scale reference for the singularity test: relative to the matrix norm.
  const double scale = std::max(lu_.norm_max(), 1.0);

  ok_ = true;
  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    std::size_t piv = k;
    double piv_val = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > piv_val) {
        piv = r;
        piv_val = v;
      }
    }
    // Inverted test so a NaN pivot (poisoned input matrix) also fails.
    if (!(piv_val > kPivotTol * scale)) {
      ok_ = false;
      return ok_;
    }
    if (piv != k) {
      for (std::size_t c = 0; c < n_; ++c)
        std::swap(lu_(k, c), lu_(piv, c));
      std::swap(perm_[k], perm_[piv]);
      perm_sign_ = -perm_sign_;
    }
    // Each trailing-row update is a contiguous axpy along row r that stops
    // at the pivot row's last nonzero: past it the update would add exact
    // zeros, which leave an entry unchanged unless it is −0, and
    // elimination never makes an entry −0 that was not −0 in `a`. A banded
    // matrix (the SQP's J·Jᵀ) so costs O(n·band²) instead of O(n³).
    std::size_t end = n_;
    while (end > k + 1 && lu_(k, end - 1) == 0.0) --end;
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n_; ++r) {
      const double m = lu_(r, k) * inv_pivot;
      lu_(r, k) = m;
      if (m == 0.0) continue;
      simd::active().axpy(-m, &lu_(k, k + 1), &lu_(r, k + 1), end - k - 1);
    }
  }
  return ok_;
}

void LuFactorization::solve_into(const Vector& b, Vector& x) const {
  EVC_EXPECT(ok_, "solve on a singular LU factorization");
  EVC_EXPECT(b.size() == n_, "LU solve dimension mismatch");
  EVC_EXPECT(&b != &x, "LU solve_into output aliases input");
  x.resize(n_);
  const simd::KernelTable& tbl = simd::active();
  // Forward: L·y = P·b (unit lower triangular); row i dots the already
  // computed prefix of x.
  for (std::size_t i = 0; i < n_; ++i)
    x[i] = b[perm_[i]] - tbl.dot(lu_.row_ptr(i), x.ptr(), i);
  // Backward: U·x = y, dotting the already computed suffix.
  for (std::size_t ii = n_; ii-- > 0;) {
    const double acc = x[ii] - tbl.dot(lu_.row_ptr(ii) + ii + 1,
                                       x.ptr() + ii + 1, n_ - ii - 1);
    x[ii] = acc / lu_(ii, ii);
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector x(n_);
  solve_into(b, x);
  return x;
}

double LuFactorization::determinant() const {
  if (!ok_) return 0.0;
  double det = static_cast<double>(perm_sign_);
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

bool CholeskyFactorization::factorize(const Matrix& a) {
  EVC_EXPECT(a.rows() == a.cols(), "Cholesky requires a square matrix");
  n_ = a.rows();
  l_.resize(n_, n_);
  ok_ = true;
  const simd::KernelTable& tbl = simd::active();
  // Row-dot form: column j's panel update dots the already computed
  // leading rows of L, which are contiguous in row-major storage.
  for (std::size_t j = 0; j < n_; ++j) {
    const double* lj = l_.row_ptr(j);
    const double diag = a(j, j) - tbl.dot(lj, lj, j);
    // Inverted test so a NaN diagonal also fails.
    if (!(diag > 0.0)) {
      ok_ = false;
      return ok_;
    }
    l_(j, j) = std::sqrt(diag);
    const double inv = 1.0 / l_(j, j);
    for (std::size_t i = j + 1; i < n_; ++i)
      l_(i, j) = (a(i, j) - tbl.dot(l_.row_ptr(i), lj, j)) * inv;
  }
  return ok_;
}

void CholeskyFactorization::solve_into(const Vector& b, Vector& x) const {
  EVC_EXPECT(ok_, "solve on a failed Cholesky factorization");
  EVC_EXPECT(b.size() == n_, "Cholesky solve dimension mismatch");
  if (&x != &b) {
    x.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) x[i] = b[i];
  }
  const simd::KernelTable& tbl = simd::active();
  // Forward: L·y = b, each row dots the solved prefix. Rows before b's
  // first nonzero solve to b's own (zero) entries, and each later row's dot
  // starts at the kDotBlock-aligned block holding that nonzero: the blocks
  // it skips hold only zero products, so the bits do not change (see
  // simd_blocked.hpp). A row of the condensed MPC's A·Z that bounds one
  // input is zero before that input's column.
  std::size_t first = 0;
  while (first < n_ && x[first] == 0.0) ++first;
  const std::size_t skip = first - first % simd::kDotBlock;
  for (std::size_t i = first; i < n_; ++i)
    x[i] = (x[i] - tbl.dot(l_.row_ptr(i) + skip, x.ptr() + skip, i - skip)) /
           l_(i, i);
  // Backward: Lᵀ·x = y, column-sweep form — one contiguous axpy along
  // row jj of L per solved component.
  for (std::size_t jj = n_; jj-- > 0;) {
    const double xj = x[jj] / l_(jj, jj);
    x[jj] = xj;
    if (xj == 0.0) continue;
    tbl.axpy(-xj, l_.row_ptr(jj), x.ptr(), jj);
  }
}

void CholeskyFactorization::solve4_in_place(double* x) const {
  EVC_EXPECT(ok_, "solve on a failed Cholesky factorization");
  simd::active().cholesky_solve4(l_.ptr(), l_.cols(), n_, x);
}

Vector CholeskyFactorization::solve(const Vector& b) const {
  Vector x(n_);
  solve_into(b, x);
  return x;
}

Vector solve_linear(const Matrix& a, const Vector& b) {
  LuFactorization lu(a);
  if (!lu.ok()) throw std::runtime_error("solve_linear: singular matrix");
  return lu.solve(b);
}

}  // namespace evc::num
