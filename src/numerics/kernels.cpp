#include "numerics/kernels.hpp"

#include "numerics/simd.hpp"
#include "util/expect.hpp"

namespace evc::num {

void gemv(double alpha, const Matrix& a, const Vector& x, double beta,
          Vector& y) {
  EVC_EXPECT(a.cols() == x.size(), "gemv dimension mismatch");
  EVC_EXPECT(&y != &x, "gemv output aliases input");
  if (beta == 0.0) {
    y.assign(a.rows(), 0.0);
  } else {
    EVC_EXPECT(y.size() == a.rows(), "gemv output dimension mismatch");
    if (beta != 1.0) y *= beta;
  }
  if (alpha == 0.0) return;
  const std::size_t rows = a.rows(), cols = a.cols();
  simd::active().gemv(alpha, a.ptr(), cols, rows, cols, x.ptr(), y.ptr());
}

void axpy(double alpha, const Vector& x, Vector& y) {
  EVC_EXPECT(x.size() == y.size(), "axpy dimension mismatch");
  simd::active().axpy(alpha, x.ptr(), y.ptr(), y.size());
}

double dot(const Vector& x, const Vector& y) {
  EVC_EXPECT(x.size() == y.size(), "dot dimension mismatch");
  return simd::active().dot(x.ptr(), y.ptr(), x.size());
}

double dot_span(const double* x, const double* y, std::size_t n) {
  return simd::active().dot(x, y, n);
}

double dot_span_between(const double* x, const double* y, std::size_t n,
                        std::size_t first, std::size_t last) {
  constexpr std::size_t kBlock = simd::kDotBlock;
  const std::size_t begin = first - first % kBlock;
  // Stop at a block boundary only inside the unrolled part of the row; a
  // last nonzero in the four-element block or the tail keeps the full end.
  std::size_t end = (last / kBlock + 1) * kBlock;
  if (end > n - n % kBlock) end = n;
  return simd::active().dot(x + begin, y + begin, end - begin);
}

void axpy_span(double a, const double* x, double* y, std::size_t n) {
  simd::active().axpy(a, x, y, n);
}

void gemv_span(double alpha, const double* a, std::size_t lda,
               std::size_t rows, std::size_t cols, const double* x,
               double* y) {
  simd::active().gemv(alpha, a, lda, rows, cols, x, y);
}

void copy_into(const Vector& src, Vector& dst) {
  dst.data().assign(src.data().begin(), src.data().end());
}

void copy_into(const Matrix& src, Matrix& dst) { dst.copy_from(src); }

}  // namespace evc::num
