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
//   add(x, y), sub(x, y), mul(x, y), div(x, y)   lane-wise (never fused)
//   reduce(v)     (l0+l2) + (l1+l3)
//   where_nonzero(c, x, y)   lane-wise c != 0 ? x : y (a NaN lane of c
//                            counts as nonzero)
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
// cholesky_solve4 runs CholeskyFactorization::solve_into on four
// right-hand sides at once, one per lane: x[4j + k] is entry j of
// right-hand side k, so a pack load reads one entry of all four. Each lane
// repeats solve_into's arithmetic on its own right-hand side:
//   * The forward dots keep dot()'s lane order. Lane l of dot()'s two
//     accumulators becomes a pack of its own (acc0[l], acc1[l]), holding
//     that lane's partial sum for each right-hand side, and the
//     combination, the four-element block, the reduction tree and the tail
//     follow dot() step for step.
//   * solve_into starts each dot at the block holding its own right-hand
//     side's first nonzero; here every lane starts at the block holding
//     the group's first nonzero. The blocks in between hold only zero
//     products for the later lanes, so by the zero-block property their
//     dots keep their bits. A row before a lane's first nonzero, which
//     solve_into does not touch, dots to +0 and so keeps the lane's ±0
//     entry: (±0 − +0) / l_ii is ±0 for the positive pivot.
//   * solve_into's backward column sweep skips the axpy of a zero x_j.
//     Here a lane whose x_j is zero keeps its entries (where_nonzero), so
//     no −0 becomes +0 through an added zero product; the other lanes
//     take y − x_j·l, which is y + (−x_j)·l bit for bit.
// A right-hand side's bits therefore depend neither on the other three
// nor on which group it was solved in.
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

  static void gemv(double alpha, const double* a, std::size_t lda,
                   std::size_t rows, std::size_t cols, const double* x,
                   double* y) {
    for (std::size_t i = 0; i < rows; ++i)
      y[i] += alpha * dot(a + i * lda, x, cols);
  }

  // Product l_j·x_j for all four right-hand sides of interleaved x.
  static Pack product4(const double* row, const double* x, std::size_t j) {
    return Pack::mul(Pack::broadcast(row[j]), Pack::load(x + 4 * j));
  }

  // solve_into on four interleaved right-hand sides, one per lane (see
  // the file comment).
  static void cholesky_solve4(const double* l, std::size_t ld, std::size_t n,
                              double* x) {
    std::size_t first = 0;
    while (first < n && x[4 * first] == 0.0 && x[4 * first + 1] == 0.0 &&
           x[4 * first + 2] == 0.0 && x[4 * first + 3] == 0.0)
      ++first;
    const std::size_t skip = first - first % kDotBlock;
    for (std::size_t i = first; i < n; ++i) {
      const double* row = l + i * ld;
      // acc0[q] and acc1[q] are lane q of dot()'s two accumulators.
      Pack acc0[4], acc1[4];
      for (int q = 0; q < 4; ++q) acc0[q] = acc1[q] = Pack::zero();
      std::size_t j = skip;
      for (; j + kDotBlock <= i; j += kDotBlock)
        for (int q = 0; q < 4; ++q) {
          acc0[q] = Pack::add(acc0[q], product4(row, x, j + q));
          acc1[q] = Pack::add(acc1[q], product4(row, x, j + 4 + q));
        }
      for (int q = 0; q < 4; ++q) acc0[q] = Pack::add(acc0[q], acc1[q]);
      for (; j + 4 <= i; j += 4)
        for (int q = 0; q < 4; ++q)
          acc0[q] = Pack::add(acc0[q], product4(row, x, j + q));
      Pack dot_i = Pack::add(Pack::add(acc0[0], acc0[2]),
                             Pack::add(acc0[1], acc0[3]));
      for (; j < i; ++j) dot_i = Pack::add(dot_i, product4(row, x, j));
      Pack::store(x + 4 * i, Pack::div(Pack::sub(Pack::load(x + 4 * i), dot_i),
                                       Pack::broadcast(row[i])));
    }
    for (std::size_t jj = n; jj-- > 0;) {
      const double* row = l + jj * ld;
      double* xj_ptr = x + 4 * jj;
      const Pack xj =
          Pack::div(Pack::load(xj_ptr), Pack::broadcast(row[jj]));
      Pack::store(xj_ptr, xj);
      if (xj_ptr[0] == 0.0 && xj_ptr[1] == 0.0 && xj_ptr[2] == 0.0 &&
          xj_ptr[3] == 0.0)
        continue;
      for (std::size_t c = 0; c < jj; ++c) {
        const Pack y = Pack::load(x + 4 * c);
        const Pack updated =
            Pack::sub(y, Pack::mul(xj, Pack::broadcast(row[c])));
        Pack::store(x + 4 * c, Pack::where_nonzero(xj, updated, y));
      }
    }
  }

  static constexpr KernelTable table(Isa isa) {
    return KernelTable{isa, &dot, &axpy, &gemv, &cholesky_solve4};
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
