#include "numerics/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "numerics/kernels.hpp"
#include "util/expect.hpp"

namespace evc::num {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Matrix::copy_from(const Matrix& src) {
  rows_ = src.rows_;
  cols_ = src.cols_;
  data_.assign(src.data_.begin(), src.data_.end());
}

double& Matrix::at(std::size_t r, std::size_t c) {
  EVC_EXPECT(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  EVC_EXPECT(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  EVC_EXPECT(cols_ == rhs.rows_, "Matrix * Matrix dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out(i, j) += a * rhs(k, j);
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  EVC_EXPECT(cols_ == v.size(), "Matrix * Vector dimension mismatch");
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Vector Matrix::transpose_times(const Vector& x) const {
  EVC_EXPECT(rows_ == x.size(), "Matrix::transpose_times dimension mismatch");
  Vector out(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < cols_; ++j) out[j] += (*this)(i, j) * xi;
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  EVC_EXPECT(rows_ == rhs.rows_ && cols_ == rhs.cols_,
             "Matrix += dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  EVC_EXPECT(rows_ == rhs.rows_ && cols_ == rhs.cols_,
             "Matrix -= dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  EVC_EXPECT(r0 + nr <= rows_ && c0 + nc <= cols_,
             "Matrix::block out of range");
  Matrix out(nr, nc);
  for (std::size_t r = 0; r < nr; ++r)
    for (std::size_t c = 0; c < nc; ++c) out(r, c) = (*this)(r0 + r, c0 + c);
  return out;
}

void Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix& src) {
  EVC_EXPECT(r0 + src.rows_ <= rows_ && c0 + src.cols_ <= cols_,
             "Matrix::set_block out of range");
  for (std::size_t r = 0; r < src.rows_; ++r)
    for (std::size_t c = 0; c < src.cols_; ++c)
      (*this)(r0 + r, c0 + c) = src(r, c);
}

Vector Matrix::row(std::size_t r) const {
  EVC_EXPECT(r < rows_, "Matrix::row out of range");
  Vector out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

Vector Matrix::col(std::size_t c) const {
  EVC_EXPECT(c < cols_, "Matrix::col out of range");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  EVC_EXPECT(r < rows_ && v.size() == cols_, "Matrix::set_row mismatch");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

double Matrix::norm_max() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

void Matrix::symmetrize() {
  EVC_EXPECT(rows_ == cols_, "symmetrize requires a square matrix");
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c) {
      const double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
}

void SparseRows::assign(const Matrix& m) {
  num_cols = m.cols();
  row_ptr.assign(m.rows() + 1, 0);
  cols.clear();
  vals.clear();
  const auto push_nonzeros = [this](const double* row, std::size_t c,
                                    std::size_t end) {
    for (; c < end; ++c)
      if (row[c] != 0.0) {
        cols.push_back(c);
        vals.push_back(row[c]);
      }
  };
  for (std::size_t r = 0; r < m.rows(); ++r) {
    row_ptr[r] = cols.size();
    const double* row = m.row_ptr(r);
    // Rows hold a handful of nonzeros, so test four entries at a time: a
    // double is ±0 exactly when its bits shifted left by one are zero.
    std::size_t c = 0;
    for (; c + 4 <= num_cols; c += 4) {
      const std::uint64_t any = std::bit_cast<std::uint64_t>(row[c]) |
                                std::bit_cast<std::uint64_t>(row[c + 1]) |
                                std::bit_cast<std::uint64_t>(row[c + 2]) |
                                std::bit_cast<std::uint64_t>(row[c + 3]);
      if ((any << 1) != 0) push_nonzeros(row, c, c + 4);
    }
    push_nonzeros(row, c, num_cols);
  }
  row_ptr[m.rows()] = cols.size();
}

double SparseRows::dot(std::size_t r, const Matrix& m,
                       const double* x) const {
  const std::size_t begin = row_ptr[r], end = row_ptr[r + 1];
  if (end - begin > 2)
    return dot_span_between(m.row_ptr(r), x, num_cols, cols[begin],
                            cols[end - 1]);
  double acc = 0.0;
  for (std::size_t t = begin; t < end; ++t) acc += vals[t] * x[cols[t]];
  return acc;
}

void SparseRows::gemv(double alpha, const Matrix& m, const double* x,
                      double* y) const {
  EVC_EXPECT(m.rows() == rows() && m.cols() == num_cols,
             "SparseRows::gemv: view does not match the dense matrix");
  for (std::size_t r = 0; r < rows(); ++r) y[r] += alpha * dot(r, m, x);
}

void SparseRows::gemv_t(const double* x, double* y) const {
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t t = row_ptr[r]; t < row_ptr[r + 1]; ++t)
      y[cols[t]] += x[r] * vals[t];
}

void ShortRows::reset(std::size_t rows) {
  len.assign(rows, kLong);
  cols.resize(2 * rows);
  vals.resize(2 * rows);
}

double ShortRows::dot(std::size_t r, const double* x) const {
  double acc = 0.0;
  for (std::size_t t = 2 * r; t < 2 * r + len[r]; ++t)
    acc += vals[t] * x[cols[t]];
  return acc;
}

void SparseRows::times(const Vector& x, Vector& y) const {
  EVC_EXPECT(x.size() == num_cols, "SparseRows * Vector dimension mismatch");
  const std::size_t m = rows();
  y.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    double acc = 0.0;
    for (std::size_t t = row_ptr[r]; t < row_ptr[r + 1]; ++t)
      acc += vals[t] * x[cols[t]];
    y[r] = acc;
  }
}

}  // namespace evc::num
