// Dense factorizations backing the QP/SQP solvers.
//
// * LuFactorization       — PLU with partial pivoting; general square
//                           systems (SQP KKT systems are symmetric but
//                           indefinite, so LU-with-pivoting is the robust
//                           workhorse at these sizes).
// * CholeskyFactorization — SPD systems (regularized QP Hessians).
//
// Both report singularity through `ok()` instead of throwing: the solvers
// treat a singular KKT matrix as a recoverable condition (they regularize
// and retry).
//
// Both support refactorization into preallocated workspace: default-construct
// once, then call `factorize()` per iteration — the internal storage is
// reused whenever the dimension allows, so steady-state refactorization
// performs no heap allocation. `solve_into` writes the solution into a
// caller-provided buffer for the same reason.
//
// Both skip work whose products are exact zeros, with the bits of the full
// computation for finite inputs: LU stops each row update at the pivot
// row's last nonzero, so a banded matrix costs O(n·band²); Cholesky's
// solve_into starts its forward sweep at the right-hand side's first
// nonzero, from that nonzero's kDotBlock-aligned block (simd_blocked.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"

namespace evc::num {

class LuFactorization {
 public:
  /// Empty factorization; call factorize() before solve().
  LuFactorization() = default;
  /// Factor A = P·L·U. `A` must be square.
  explicit LuFactorization(const Matrix& a) { factorize(a); }

  /// (Re)factor A = P·L·U into this object's workspace, reusing storage.
  /// Returns ok().
  bool factorize(const Matrix& a);

  /// False if a pivot collapsed below tolerance (singular to working
  /// precision); `solve` must not be called in that case.
  bool ok() const { return ok_; }
  std::size_t dim() const { return n_; }

  Vector solve(const Vector& b) const;
  /// Solve A·x = b into `x` (resized; must not alias `b` — the row
  /// permutation reads b out of order).
  void solve_into(const Vector& b, Vector& x) const;
  double determinant() const;

  /// Packed factor entry: L(r, c) below the diagonal (unit diagonal
  /// implied), U(r, c) on and above it — test introspection.
  double entry(std::size_t r, std::size_t c) const { return lu_(r, c); }
  /// Original row of A that pivoting moved to row i.
  std::size_t pivot_row(std::size_t i) const { return perm_[i]; }

  /// Bytes of factorization storage currently held.
  std::size_t workspace_bytes() const {
    return lu_.capacity() * sizeof(double) +
           perm_.capacity() * sizeof(std::size_t);
  }

 private:
  std::size_t n_ = 0;
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
  bool ok_ = false;
};

class CholeskyFactorization {
 public:
  /// Empty factorization; call factorize() before solve().
  CholeskyFactorization() = default;
  /// Factor A = L·Lᵀ. `A` must be square and symmetric; `ok()` is false if
  /// A is not (numerically) positive definite.
  explicit CholeskyFactorization(const Matrix& a) { factorize(a); }

  /// (Re)factor A = L·Lᵀ into this object's workspace, reusing storage.
  /// Returns ok().
  bool factorize(const Matrix& a);

  bool ok() const { return ok_; }
  std::size_t dim() const { return n_; }
  Vector solve(const Vector& b) const;
  /// Solve A·x = b into `x` (resized; aliasing `b` is allowed — the
  /// triangular sweeps overwrite sequentially).
  void solve_into(const Vector& b, Vector& x) const;
  /// Factor entry L(r, c), r ≥ c — test introspection.
  double entry(std::size_t r, std::size_t c) const { return l_(r, c); }

  /// Solve L·Y = B in place, one right-hand side per *column* of B (n×k).
  /// Row-oriented sweeps keep every inner loop contiguous, which is what
  /// makes many-rhs solves (the Schur complement's K⁻¹Eᵀ) fast.
  void forward_block_in_place(Matrix& b) const;
  /// Solve Lᵀ·X = Y in place; completes forward_block_in_place so that
  /// B becomes A⁻¹ of the original block.
  void backward_block_in_place(Matrix& b) const;

  std::size_t workspace_bytes() const {
    return l_.capacity() * sizeof(double);
  }

 private:
  std::size_t n_ = 0;
  Matrix l_;
  bool ok_ = false;
};

/// Convenience: solve A·x = b by PLU. Throws std::runtime_error if A is
/// singular to working precision (callers that can recover should construct
/// LuFactorization directly and test ok()).
Vector solve_linear(const Matrix& a, const Vector& b);

}  // namespace evc::num
