// Unit + property tests for the dense linear algebra kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vector.hpp"
#include "util/random.hpp"

namespace evc::num {
namespace {

TEST(Vector, ArithmeticAndNorms) {
  Vector a{1.0, -2.0, 3.0};
  Vector b{0.5, 0.5, 0.5};
  Vector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 1.5);
  EXPECT_DOUBLE_EQ(c[1], -1.5);
  EXPECT_DOUBLE_EQ(c[2], 3.5);
  EXPECT_DOUBLE_EQ(a.dot(b), 0.5 - 1.0 + 1.5);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 3.0);
  EXPECT_DOUBLE_EQ(a.norm1(), 6.0);
  EXPECT_DOUBLE_EQ(a.norm2(), std::sqrt(14.0));
}

TEST(Vector, SegmentRoundTrip) {
  Vector a{1, 2, 3, 4, 5};
  Vector mid = a.segment(1, 3);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_DOUBLE_EQ(mid[0], 2);
  EXPECT_DOUBLE_EQ(mid[2], 4);
  Vector b(5);
  b.set_segment(1, mid);
  EXPECT_DOUBLE_EQ(b[0], 0);
  EXPECT_DOUBLE_EQ(b[1], 2);
  EXPECT_DOUBLE_EQ(b[3], 4);
}

TEST(Vector, SizeMismatchThrows) {
  Vector a{1, 2};
  Vector b{1, 2, 3};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a.dot(b), std::invalid_argument);
  EXPECT_THROW(a.segment(1, 5), std::invalid_argument);
}

TEST(Matrix, MultiplyIdentity) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 2) = 2;
  a(1, 1) = -3;
  const Matrix i3 = Matrix::identity(3);
  const Matrix prod = a * i3;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
}

TEST(Matrix, TransposeTimesMatchesExplicitTranspose) {
  SplitMix64 rng(7);
  Matrix a(4, 6);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) a(r, c) = rng.uniform(-2, 2);
  Vector x(4);
  for (std::size_t i = 0; i < 4; ++i) x[i] = rng.uniform(-1, 1);
  const Vector fast = a.transpose_times(x);
  const Vector slow = a.transposed() * x;
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast[i], slow[i], 1e-14);
}

TEST(Matrix, BlockRoundTrip) {
  Matrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      a(r, c) = static_cast<double>(r * 4 + c);
  const Matrix blk = a.block(1, 2, 2, 2);
  EXPECT_DOUBLE_EQ(blk(0, 0), 6);
  EXPECT_DOUBLE_EQ(blk(1, 1), 11);
  Matrix b(4, 4);
  b.set_block(1, 2, blk);
  EXPECT_DOUBLE_EQ(b(1, 2), 6);
  EXPECT_DOUBLE_EQ(b(2, 3), 11);
}

TEST(Matrix, SymmetrizeAveragesOffDiagonal) {
  Matrix a(2, 2);
  a(0, 1) = 2.0;
  a(1, 0) = 4.0;
  a.symmetrize();
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
}

// --- SparseRows ---

TEST(SparseRows, TimesMatchesDenseProductBitForBit) {
  // times() adds only a row's nonzero products, in column order; the dense
  // product also adds the exact-zero ones. For finite x both must give the
  // same bits. Banded matrices from tridiagonal (half-bandwidth 1) to
  // half-bandwidth 9, with zeros inside the band and ±0 entries in x.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  SplitMix64 rng(41);
  for (const std::size_t n : {1u, 2u, 12u, 37u}) {
    for (const std::size_t half_band : {1u, 2u, 4u, 9u}) {
      Matrix m(n, n);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = r > half_band ? r - half_band : 0;
             c < std::min(n, r + half_band + 1); ++c)
          if (rng.next_u64() % 8 != 0) m(r, c) = rng.uniform(-5.0, 5.0);
      SparseRows rows;
      rows.assign(m);
      for (int trial = 0; trial < 10; ++trial) {
        Vector x(n);
        for (std::size_t i = 0; i < n; ++i) {
          switch (rng.next_u64() % 8) {
            case 0: x[i] = 0.0; break;
            case 1: x[i] = -0.0; break;
            default: x[i] = rng.uniform(-5.0, 5.0);
          }
        }
        const Vector dense = m * x;
        Vector sparse(n + 1, 7.0);
        rows.times(x, sparse);
        ASSERT_EQ(sparse.size(), n);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(bits(sparse[i]), bits(dense[i]))
              << "n " << n << " half-bandwidth " << half_band << " row " << i;
      }
    }
  }
}

// --- LU ---

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const Vector x = solve_linear(a, Vector{5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  LuFactorization lu(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_THROW(solve_linear(a, Vector{1, 1}), std::runtime_error);
}

TEST(Lu, DeterminantOfPermutedIdentity) {
  Matrix a(3, 3);
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(2, 2) = 1;
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

class LuRandomized : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomized, ResidualIsTiny) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 20;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-5, 5);
  // Diagonal dominance guarantees nonsingularity for the property sweep.
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 10.0;
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-3, 3);
  const Vector x = solve_linear(a, b);
  const Vector r = a * x - b;
  EXPECT_LT(r.norm_inf(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuRandomized, ::testing::Range(0, 25));

// --- Cholesky ---

TEST(Cholesky, SolvesSpdSystem) {
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  CholeskyFactorization chol(a);
  ASSERT_TRUE(chol.ok());
  const Vector x = chol.solve(Vector{1, 2});
  const Vector r = a * x - Vector{1, 2};
  EXPECT_LT(r.norm_inf(), 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, −1
  CholeskyFactorization chol(a);
  EXPECT_FALSE(chol.ok());
}

class CholeskyRandomized : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandomized, GramMatrixSolves) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam() + 100));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 12;
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  Matrix a = g.transposed() * g;  // PSD
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;  // make PD
  CholeskyFactorization chol(a);
  ASSERT_TRUE(chol.ok());
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-2, 2);
  const Vector x = chol.solve(b);
  EXPECT_LT((a * x - b).norm_inf(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyRandomized, ::testing::Range(0, 20));

}  // namespace
}  // namespace evc::num
