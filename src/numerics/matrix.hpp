// Dense row-major real matrix for the embedded optimization stack.
// Storage is 64-byte aligned (numerics/aligned.hpp) for the SIMD kernels.
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/aligned.hpp"
#include "numerics/vector.hpp"

namespace evc::num {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  /// Elements the backing store can hold without reallocating.
  std::size_t capacity() const { return data_.capacity(); }

  /// Set dimensions and zero every element. Reuses the backing store when
  /// capacity suffices — the workspace-reuse primitive.
  void resize(std::size_t rows, std::size_t cols);
  /// Zero every element, keeping dimensions.
  void set_zero();
  /// dst := src, reusing this matrix's backing store when adequate.
  void copy_from(const Matrix& src);

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  /// Raw 64-byte-aligned element pointer (row-major, leading dim = cols()).
  double* ptr() { return data_.data(); }
  const double* ptr() const { return data_.data(); }
  /// Pointer to the first element of row `r`.
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }
  /// Bounds-checked access.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;
  Vector operator*(const Vector& v) const;
  /// yᵀ = xᵀ·A, i.e. Aᵀ·x without forming the transpose.
  Vector transpose_times(const Vector& x) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Copy rows [r0, r0+nr) × cols [c0, c0+nc).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;
  /// Write `src` at offset (r0, c0).
  void set_block(std::size_t r0, std::size_t c0, const Matrix& src);
  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);

  /// max |a_ij|.
  double norm_max() const;
  /// Symmetrize in place: A := (A + Aᵀ)/2. Cheap guard before factorizing
  /// matrices that are symmetric up to rounding.
  void symmetrize();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedBuffer data_;
};

/// The nonzeros of a matrix row by row, columns ascending (compressed sparse
/// row), for products with matrices whose rows hold a handful of nonzeros.
/// times() adds each row's nonzero products in column order, so for finite
/// x it returns the bits of Matrix::operator*(Vector): the terms it skips
/// are exact zeros, and a sum that starts at +0 never becomes −0.
struct SparseRows {
  std::size_t num_cols = 0;
  std::vector<std::size_t> row_ptr;  ///< row r is [row_ptr[r], row_ptr[r+1])
  std::vector<std::size_t> cols;
  std::vector<double> vals;

  /// Gather the nonzeros of `m`, reusing this object's storage.
  void assign(const Matrix& m);
  std::size_t rows() const { return row_ptr.empty() ? 0 : row_ptr.size() - 1; }
  /// y := M·x.
  void times(const Vector& x, Vector& y) const;
  /// Row r of `m`, the matrix this view was gathered from, times x in the
  /// bits of dot_span over the whole row, for finite x. A row with at most
  /// two nonzeros is summed from them, starting at +0 — exactly what the
  /// blocked dot returns when every other product is an exact zero (see
  /// simd_blocked.hpp); a longer row goes through the kernel over the
  /// blocks that hold its nonzeros (dot_span_between).
  double dot(std::size_t r, const Matrix& m, const double* x) const;
  /// y[r] += alpha·dot(r, m, x) for every row: the bits of gemv_span.
  void gemv(double alpha, const Matrix& m, const double* x, double* y) const;
  /// y[c] += x[r]·M(r, c) over the nonzeros, rows ascending, so each entry
  /// of y adds its products in ascending row order. For finite x and no
  /// entry of y at −0 this equals the same sum over every entry of M,
  /// since adding a skipped exact-zero product changes only a −0 (and a
  /// sum never turns into −0 unless both terms are).
  void gemv_t(const double* x, double* y) const;
};

/// The rows of a matrix with at most two nonzeros, entry by entry; a
/// longer row is only marked. Built by whoever forms the matrix and knows
/// its structure, so nothing rescans the dense rows.
struct ShortRows {
  static constexpr unsigned char kLong = 3;
  std::vector<unsigned char> len;  ///< entries in row r (0, 1 or 2) or kLong
  std::vector<std::size_t> cols;   ///< row r's entries are [2r, 2r + len[r])
  std::vector<double> vals;

  /// Mark `rows` rows long, reusing storage.
  void reset(std::size_t rows);
  bool is_short(std::size_t r) const { return len[r] != kLong; }
  /// Short row r times x, summed from +0 in entry order: the bits of
  /// dot_span over the dense row for finite x (see SparseRows::dot).
  double dot(std::size_t r, const double* x) const;
};

}  // namespace evc::num
