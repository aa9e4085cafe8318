// The one blocked-accumulation algorithm behind every SIMD target.
//
// Each instruction set provides a Pack type modelling **four logical
// double lanes** (AVX2: one 4-lane register; SSE2/NEON: two 2-lane
// registers; scalar: four doubles) and this header instantiates the kernel
// bodies over it. Because every target executes the same lane arithmetic in
// the same order — eight-element unroll with two pack accumulators, a fixed
// reduction tree ((l0+l2) + (l1+l3)), sequential scalar tail, and no fused
// multiply-add anywhere — the results are bit-identical across targets for
// every input. tests/kernels_simd_test asserts exactly that.
//
// Requirements on Pack (all static):
//   load(p)       four doubles from p (unaligned allowed)
//   store(p, v)   four doubles to p (unaligned allowed)
//   broadcast(a)  all lanes = a
//   zero()        all lanes = 0.0
//   add(x, y), mul(x, y)   lane-wise (never fused)
//   reduce(v)     (l0+l2) + (l1+l3)
//
// Zero-block property: every lane accumulator starts at +0, and adding an
// exact-zero product (±0, for finite operands) to a lane that is not −0
// leaves it unchanged — a lane never becomes −0, since x + y is −0 only
// when both are. So a whole kDotBlock-element block of zero products
// changes no lane, and dot(x + s, y + s, n − s) returns the bits of
// dot(x, y, n) whenever s is a multiple of kDotBlock and every product
// before s is zero: the blocks after s land in the same lanes in the same
// order. Likewise the dot may stop at a multiple e of kDotBlock no later
// than the last full block when every product from e on is zero: the
// blocks, four-element block and tail it skips would change nothing. And
// a dot whose only nonzero products are p and q returns (0 + p) + q
// wherever they fall: in either accumulator, the four-element block or the
// scalar tail. The zero-prefix skip of CholeskyFactorization::solve_into,
// num::dot_span_between and the short-row dots of num::SparseRows and
// num::ShortRows rely on this.
//
// The including translation unit must be compiled with -ffp-contract=off so
// the compiler cannot fuse the scalar tail (or the scalar pack) into FMAs
// that the vector targets do not perform.
#pragma once

#include <cstddef>

#include "numerics/simd.hpp"

namespace evc::num::simd {

template <typename Pack>
struct BlockedKernels {
  static double dot(const double* x, const double* y, std::size_t n) {
    Pack acc0 = Pack::zero();
    Pack acc1 = Pack::zero();
    std::size_t i = 0;
    static_assert(kDotBlock == 8, "the dot unrolls two four-lane packs");
    for (; i + kDotBlock <= n; i += kDotBlock) {
      acc0 = Pack::add(acc0, Pack::mul(Pack::load(x + i), Pack::load(y + i)));
      acc1 = Pack::add(acc1,
                       Pack::mul(Pack::load(x + i + 4), Pack::load(y + i + 4)));
    }
    acc0 = Pack::add(acc0, acc1);
    for (; i + 4 <= n; i += 4)
      acc0 = Pack::add(acc0, Pack::mul(Pack::load(x + i), Pack::load(y + i)));
    double r = Pack::reduce(acc0);
    for (; i < n; ++i) r += x[i] * y[i];
    return r;
  }

  static void axpy(double a, const double* x, double* y, std::size_t n) {
    const Pack va = Pack::broadcast(a);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      Pack::store(y + i,
                  Pack::add(Pack::load(y + i), Pack::mul(va, Pack::load(x + i))));
      Pack::store(y + i + 4, Pack::add(Pack::load(y + i + 4),
                                       Pack::mul(va, Pack::load(x + i + 4))));
    }
    for (; i + 4 <= n; i += 4)
      Pack::store(y + i,
                  Pack::add(Pack::load(y + i), Pack::mul(va, Pack::load(x + i))));
    for (; i < n; ++i) y[i] += a * x[i];
  }

  static void scale(double a, double* x, std::size_t n) {
    const Pack va = Pack::broadcast(a);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      Pack::store(x + i, Pack::mul(va, Pack::load(x + i)));
    for (; i < n; ++i) x[i] *= a;
  }

  static void gemv(double alpha, const double* a, std::size_t lda,
                   std::size_t rows, std::size_t cols, const double* x,
                   double* y) {
    for (std::size_t i = 0; i < rows; ++i)
      y[i] += alpha * dot(a + i * lda, x, cols);
  }

  static void gemv_t(double alpha, const double* a, std::size_t lda,
                     std::size_t rows, std::size_t cols, const double* x,
                     double* y) {
    for (std::size_t i = 0; i < rows; ++i)
      axpy(alpha * x[i], a + i * lda, y, cols);
  }

  static void gemm(double alpha, const double* a, std::size_t lda,
                   const double* b, std::size_t ldb, double* c,
                   std::size_t ldc, std::size_t m, std::size_t k,
                   std::size_t n) {
    for (std::size_t i = 0; i < m; ++i) {
      double* ci = c + i * ldc;
      for (std::size_t p = 0; p < k; ++p)
        axpy(alpha * a[i * lda + p], b + p * ldb, ci, n);
    }
  }

  static constexpr KernelTable table(Isa isa) {
    return KernelTable{isa, &dot, &axpy, &scale, &gemv, &gemv_t, &gemm};
  }
};

// Internal per-target table accessors, defined one per translation unit so
// each can be compiled with its own ISA flags. A target that is not
// compiled into this build returns nullptr.
const KernelTable* scalar_table();
const KernelTable* sse2_table();
const KernelTable* avx2_table();
const KernelTable* neon_table();

}  // namespace evc::num::simd
