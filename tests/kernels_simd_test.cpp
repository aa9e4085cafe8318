// Bitwise-reproducibility contract of the SIMD dispatch layer.
//
// Every runnable kernel table (scalar / sse2 / avx2 / neon, whatever this
// host offers) must produce doubles bit-identical to the blocked scalar
// reference re-implemented below with plain doubles — on every size,
// remainder lanes included, and on unaligned pointers. This is the property
// that lets checkpoint/soak byte-identity hold no matter which target a
// host auto-selects. Comparisons are on bit patterns, never EXPECT_DOUBLE_EQ.
// The same holds for the factorizations and short-row dots that skip exact
// zero products: their results are checked against the full computation
// redone on every target.
//
// NOTE: this file must be compiled with -ffp-contract=off (set in
// tests/CMakeLists.txt) so the reference below cannot be fused into FMAs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "battery/battery_params.hpp"
#include "core/mpc_formulation.hpp"
#include "hvac/hvac_params.hpp"
#include "numerics/aligned.hpp"
#include "numerics/factorization.hpp"
#include "numerics/matrix.hpp"
#include "numerics/simd.hpp"
#include "numerics/vector.hpp"
#include "util/random.hpp"

namespace {

using namespace evc;
using num::simd::Isa;
using num::simd::KernelTable;

std::uint64_t bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits(a), bits(b))

// ---------------------------------------------------------------------------
// Test-local blocked scalar reference: the documented accumulation order —
// four logical lanes, eight-element unroll with two accumulators, reduction
// tree (l0+l2)+(l1+l3), sequential scalar tail — written out with plain
// doubles, independent of the library's Pack machinery.

struct RefLanes {
  double l[4];
};

RefLanes ref_zero() { return {{0.0, 0.0, 0.0, 0.0}}; }

void ref_acc(RefLanes& acc, const double* x, const double* y) {
  for (int lane = 0; lane < 4; ++lane) {
    const double prod = x[lane] * y[lane];
    acc.l[lane] = acc.l[lane] + prod;
  }
}

double ref_reduce(const RefLanes& v) {
  return (v.l[0] + v.l[2]) + (v.l[1] + v.l[3]);
}

double ref_dot(const double* x, const double* y, std::size_t n) {
  RefLanes acc0 = ref_zero();
  RefLanes acc1 = ref_zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    ref_acc(acc0, x + i, y + i);
    ref_acc(acc1, x + i + 4, y + i + 4);
  }
  for (int lane = 0; lane < 4; ++lane) acc0.l[lane] += acc1.l[lane];
  for (; i + 4 <= n; i += 4) ref_acc(acc0, x + i, y + i);
  double r = ref_reduce(acc0);
  for (; i < n; ++i) r += x[i] * y[i];
  return r;
}

void ref_axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double prod = a * x[i];
    y[i] = y[i] + prod;
  }
}

void ref_gemv(double alpha, const double* a, std::size_t lda, std::size_t rows,
              std::size_t cols, const double* x, double* y) {
  for (std::size_t i = 0; i < rows; ++i)
    y[i] += alpha * ref_dot(a + i * lda, x, cols);
}

// ---------------------------------------------------------------------------

std::vector<double> random_data(SplitMix64& rng, std::size_t n) {
  std::vector<double> out(n);
  // Mixed magnitudes and signs so reassociated sums would actually differ.
  for (double& v : out) v = rng.uniform(-3.0, 3.0) * (1.0 + rng.uniform(0.0, 1e4));
  return out;
}

/// Sizes that hit every lane-remainder class (mod 8 and mod 4) plus a pair
/// of larger blocks.
std::vector<std::size_t> test_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(128);
  sizes.push_back(129);
  return sizes;
}

class SimdTargetTest : public ::testing::TestWithParam<Isa> {
 protected:
  const KernelTable& table() const {
    const KernelTable* t = num::simd::table_for(GetParam());
    EXPECT_NE(t, nullptr);
    return *t;
  }
};

TEST_P(SimdTargetTest, DotMatchesBlockedReferenceBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(11);
  for (const std::size_t n : test_sizes()) {
    const auto x = random_data(rng, n);
    const auto y = random_data(rng, n);
    EXPECT_BITEQ(tbl.dot(x.data(), y.data(), n), ref_dot(x.data(), y.data(), n))
        << "n=" << n;
  }
}

TEST_P(SimdTargetTest, AxpyMatchesBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(12);
  for (const std::size_t n : test_sizes()) {
    const auto x = random_data(rng, n);
    auto y_ref = random_data(rng, n);
    auto y_tbl = y_ref;
    const double a = rng.uniform(-2.0, 2.0);
    ref_axpy(a, x.data(), y_ref.data(), n);
    tbl.axpy(a, x.data(), y_tbl.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_BITEQ(y_tbl[i], y_ref[i]) << "n=" << n << " i=" << i;
  }
}

TEST_P(SimdTargetTest, GemvMatchesBitwise) {
  const KernelTable& tbl = table();
  SplitMix64 rng(14);
  for (const std::size_t rows : {1u, 3u, 7u, 12u, 31u}) {
    for (const std::size_t cols : {1u, 5u, 8u, 13u, 64u, 67u}) {
      const auto a = random_data(rng, rows * cols);
      const auto x = random_data(rng, cols);
      auto y_ref = random_data(rng, rows);
      auto y_tbl = y_ref;
      const double alpha = rng.uniform(-2.0, 2.0);
      ref_gemv(alpha, a.data(), cols, rows, cols, x.data(), y_ref.data());
      tbl.gemv(alpha, a.data(), cols, rows, cols, x.data(), y_tbl.data());
      for (std::size_t i = 0; i < rows; ++i)
        EXPECT_BITEQ(y_tbl[i], y_ref[i])
            << rows << "x" << cols << " i=" << i;
    }
  }
}

TEST_P(SimdTargetTest, UnalignedPointersMatchBitwise) {
  // Offset every operand by one double so no pointer is 16-, 32- or 64-byte
  // aligned: the kernels promise unaligned-safe loads/stores.
  const KernelTable& tbl = table();
  SplitMix64 rng(17);
  for (const std::size_t n : {7u, 16u, 29u, 64u, 65u}) {
    const auto xs = random_data(rng, n + 1);
    auto ys_ref = random_data(rng, n + 1);
    auto ys_tbl = ys_ref;
    const double* x = xs.data() + 1;
    ASSERT_NE(reinterpret_cast<std::uintptr_t>(x) % 16, 0u);

    EXPECT_BITEQ(tbl.dot(x, ys_tbl.data() + 1, n),
                 ref_dot(x, ys_ref.data() + 1, n))
        << "n=" << n;

    const double a = rng.uniform(-2.0, 2.0);
    ref_axpy(a, x, ys_ref.data() + 1, n);
    tbl.axpy(a, x, ys_tbl.data() + 1, n);
    for (std::size_t i = 0; i <= n; ++i)
      EXPECT_BITEQ(ys_tbl[i], ys_ref[i]) << "n=" << n << " i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Exactness of the solver paths that skip work whose products are exact
// zeros: each must return the bits of the full computation, and since the
// library runs on the active target, the full computation is redone here
// on every target.

/// Random symmetric positive definite n×n matrix.
num::Matrix random_spd(SplitMix64& rng, std::size_t n) {
  num::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  num::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = i == j ? static_cast<double>(n) : 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
      a(i, j) = acc;
    }
  return a;
}

double random_nonzero(SplitMix64& rng) {
  const double v = rng.uniform(-3.0, 3.0) * (1.0 + rng.uniform(0.0, 1e3));
  return v != 0.0 ? v : 1.0;
}

TEST_P(SimdTargetTest, CholeskyZeroPrefixSolveMatchesFullRowDotSolve) {
  // CholeskyFactorization::solve_into starts each forward row's dot at the
  // block holding the right-hand side's first nonzero; the reference dots
  // every row from column 0.
  const KernelTable& tbl = table();
  SplitMix64 rng(21);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  for (const std::size_t n : {59u, 60u, 61u}) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    num::CholeskyFactorization chol;
    ASSERT_TRUE(chol.factorize(random_spd(rng, n))) << "n=" << n;
    num::Matrix l(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c <= r; ++c) l(r, c) = chol.entry(r, c);
    for (std::size_t k = 0; k <= n; ++k) {
      num::Vector b(n);
      for (std::size_t i = k; i < n; ++i) b[i] = random_nonzero(rng);
      std::vector<double> ref(b.data().begin(), b.data().end());
      for (std::size_t i = 0; i < n; ++i)
        ref[i] = (ref[i] - tbl.dot(l.row_ptr(i), ref.data(), i)) / l(i, i);
      for (std::size_t jj = n; jj-- > 0;) {
        const double xj = ref[jj] / l(jj, jj);
        ref[jj] = xj;
        if (xj == 0.0) continue;
        tbl.axpy(-xj, l.row_ptr(jj), ref.data(), jj);
      }
      num::Vector x;
      chol.solve_into(b, x);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_BITEQ(x[i], ref[i]) << "n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST_P(SimdTargetTest, CholeskySolve4MatchesSolveIntoBitwise) {
  // cholesky_solve4 solves four interleaved right-hand sides, one per
  // lane, from the block holding the group's earliest first nonzero, and
  // must return each one solve_into's bits. Lanes get their own first
  // nonzero (an all-zero lane included), ±0 entries before and after it,
  // and a block-diagonal factor so that nonzero lanes meet exact zeros in
  // the backward sweep too.
  const KernelTable& tbl = table();
  SplitMix64 rng(29);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  for (const std::size_t n : {59u, 60u, 61u}) sizes.push_back(n);
  for (const std::size_t n : sizes)
    for (const bool block_diagonal : {false, true}) {
      num::Matrix a = random_spd(rng, n);
      if (block_diagonal)
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            if ((2 * i < n) != (2 * j < n)) a(i, j) = 0.0;
      num::CholeskyFactorization chol;
      ASSERT_TRUE(chol.factorize(a)) << "n=" << n;
      num::Matrix l(n, n);
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c <= r; ++c) l(r, c) = chol.entry(r, c);
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<num::Vector> rhs(4, num::Vector(n));
        for (std::size_t k = 0; k < 4; ++k) {
          // Trial 0 has an all-zero lane, trial 1 four of them.
          std::size_t first = rng.next_u64() % (n + 1);
          if ((trial == 0 && k == 2) || trial == 1) first = n;
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t draw = rng.next_u64() % 5;
            if (i < first)
              rhs[k][i] = draw < 2 ? -0.0 : 0.0;
            else if (i == first || draw > 0)
              rhs[k][i] = random_nonzero(rng);
            else
              rhs[k][i] = rng.next_u64() % 2 == 0 ? -0.0 : 0.0;
          }
        }
        std::vector<double> x(4 * n);
        for (std::size_t k = 0; k < 4; ++k)
          for (std::size_t i = 0; i < n; ++i) x[4 * i + k] = rhs[k][i];
        tbl.cholesky_solve4(l.ptr(), n, n, x.data());
        for (std::size_t k = 0; k < 4; ++k) {
          num::Vector ref;
          chol.solve_into(rhs[k], ref);
          for (std::size_t i = 0; i < n; ++i)
            EXPECT_BITEQ(x[4 * i + k], ref[i])
                << "n=" << n << " block=" << block_diagonal
                << " trial=" << trial << " lane=" << k << " i=" << i;
        }
      }
    }
}

/// PLU with partial pivoting whose every trailing-row update runs to the
/// end of the row, on one target.
struct FullLu {
  num::Matrix lu;
  std::vector<std::size_t> perm;
  bool ok = true;
  std::size_t swaps = 0;
};

FullLu full_lu(const KernelTable& tbl, const num::Matrix& a) {
  const std::size_t n = a.rows();
  FullLu f;
  f.lu = a;
  f.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.perm[i] = i;
  const double scale = std::max(a.norm_max(), 1.0);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double piv_val = std::abs(f.lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r)
      if (std::abs(f.lu(r, k)) > piv_val) {
        piv = r;
        piv_val = std::abs(f.lu(r, k));
      }
    if (!(piv_val > 1e-13 * scale)) {
      f.ok = false;
      return f;
    }
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(f.lu(k, c), f.lu(piv, c));
      std::swap(f.perm[k], f.perm[piv]);
      ++f.swaps;
    }
    const double inv_pivot = 1.0 / f.lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = f.lu(r, k) * inv_pivot;
      f.lu(r, k) = m;
      if (m == 0.0) continue;
      tbl.axpy(-m, &f.lu(k, k + 1), &f.lu(r, k + 1), n - k - 1);
    }
  }
  return f;
}

/// The MPC's J·Jᵀ at a perturbed cold start, the matrix the SQP's
/// second-order correction factors.
num::Matrix mpc_jjt(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const std::size_t horizon = 12;
  core::MpcWindowData w;
  w.dt_s = 5.0;
  w.initial_cabin_temp_c = rng.uniform(18.0, 32.0);
  w.initial_soc_percent = rng.uniform(40.0, 95.0);
  w.fixed_power_kw.assign(horizon, 0.0);
  w.outside_temp_c.assign(horizon, 0.0);
  for (std::size_t k = 0; k < horizon; ++k) {
    w.fixed_power_kw[k] = rng.uniform(2.0, 18.0);
    w.outside_temp_c[k] = rng.uniform(-5.0, 40.0);
  }
  const core::MpcFormulation f(hvac::default_hvac_params(),
                               bat::leaf_24kwh_params(), core::MpcWeights{},
                               w);
  num::Vector z = f.cold_start();
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] += 0.01 * rng.uniform(-1.0, 1.0);
  num::Matrix j;
  f.eq_jacobian(z, j);
  num::Matrix jjt(j.rows(), j.rows());
  for (std::size_t r = 0; r < j.rows(); ++r)
    for (std::size_t c = 0; c < j.rows(); ++c) {
      double acc = 0.0;
      for (std::size_t t = 0; t < j.cols(); ++t) acc += j(r, t) * j(c, t);
      jjt(r, c) = acc;
    }
  return jjt;
}

TEST_P(SimdTargetTest, BandStoppedLuMatchesFullElimination) {
  // LuFactorization::factorize stops each row update at the pivot row's
  // last nonzero. Factors, pivots and solves must equal full elimination on
  // dense matrices, banded ones (one with a weak diagonal, so rows swap)
  // and the MPC's J·Jᵀ.
  const KernelTable& tbl = table();
  SplitMix64 rng(22);
  std::vector<std::pair<std::string, num::Matrix>> cases;
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 30u}) {
    num::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = random_nonzero(rng);
    cases.emplace_back("dense n=" + std::to_string(n), a);
  }
  for (const std::size_t band : {1u, 2u, 3u, 5u}) {
    for (const double diag : {50.0, 1e-3}) {
      const std::size_t n = 40;
      num::Matrix a(n, n);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i > band ? i - band : 0;
             j < std::min(n, i + band + 1); ++j)
          a(i, j) = i == j ? diag * (1.0 + rng.uniform(0.0, 1.0))
                           : rng.uniform(-1.0, 1.0);
      cases.emplace_back("band " + std::to_string(band) +
                             " diag=" + std::to_string(diag),
                         a);
    }
  }
  for (const std::uint64_t seed : {1u, 2u, 3u})
    cases.emplace_back("mpc jjt seed=" + std::to_string(seed),
                       mpc_jjt(seed));

  std::size_t swapped_cases = 0;
  for (const auto& [name, a] : cases) {
    const std::size_t n = a.rows();
    const FullLu ref = full_lu(tbl, a);
    num::LuFactorization lu;
    ASSERT_EQ(lu.factorize(a), ref.ok) << name;
    if (!ref.ok) continue;
    if (ref.swaps > 0) ++swapped_cases;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(lu.pivot_row(i), ref.perm[i]) << name << " i=" << i;
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_BITEQ(lu.entry(i, j), ref.lu(i, j))
            << name << " (" << i << ", " << j << ")";
    }
    num::Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = random_nonzero(rng);
    std::vector<double> x_ref(n);
    for (std::size_t i = 0; i < n; ++i)
      x_ref[i] = b[ref.perm[i]] - tbl.dot(ref.lu.row_ptr(i), x_ref.data(), i);
    for (std::size_t ii = n; ii-- > 0;)
      x_ref[ii] = (x_ref[ii] - tbl.dot(ref.lu.row_ptr(ii) + ii + 1,
                                       x_ref.data() + ii + 1, n - ii - 1)) /
                  ref.lu(ii, ii);
    const num::Vector x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_BITEQ(x[i], x_ref[i]) << name << " x[" << i << "]";
  }
  EXPECT_GT(swapped_cases, 4u);
}

TEST_P(SimdTargetTest, NonzeroRowDotsMatchKernelDot) {
  // A row with at most two nonzeros is dotted from those entries
  // (num::ShortRows::dot, and num::SparseRows::gemv below three entries).
  // Every position pair of a 60-wide row — both pack accumulators and the
  // four-element block — and of a 63-wide one, which adds the scalar tail,
  // must give the kernel's bits; zero and −0 entries of x make products
  // that are ±0. A longer row goes through the kernel over the blocks that
  // hold its nonzeros; three-entry rows at every offset cover each block
  // boundary.
  const KernelTable& tbl = table();
  SplitMix64 rng(23);
  for (const std::size_t n : {60u, 63u}) {
    std::vector<double> x(n);
    for (std::size_t t = 0; t < n; ++t)
      x[t] = t % 7 == 3 ? -0.0 : t % 11 == 5 ? 0.0 : random_nonzero(rng);
    std::vector<std::vector<std::size_t>> supports{{}};
    for (std::size_t i = 0; i < n; ++i) {
      supports.push_back({i});
      for (std::size_t j = i + 1; j < n; ++j) supports.push_back({i, j});
    }
    for (std::size_t i = 0; i + 2 < n; ++i) {
      supports.push_back({i, i + 1, i + 2});
      supports.push_back({i, std::min(n - 1, i + 9), std::min(n - 1, i + 17)});
    }
    for (const std::vector<std::size_t>& support : supports) {
      num::Matrix row(1, n);
      num::ShortRows short_rows;
      short_rows.reset(1);
      if (support.size() <= 2)
        short_rows.len[0] = static_cast<unsigned char>(support.size());
      for (std::size_t t = 0; t < support.size(); ++t) {
        row(0, support[t]) = random_nonzero(rng);
        if (t < 2) {
          short_rows.cols[t] = support[t];
          short_rows.vals[t] = row(0, support[t]);
        }
      }
      const double expected = tbl.dot(row.ptr(), x.data(), n);
      std::string where = "n=" + std::to_string(n);
      for (const std::size_t c : support) where += " " + std::to_string(c);
      if (short_rows.is_short(0)) {
        EXPECT_BITEQ(short_rows.dot(0, x.data()), expected) << where;
      }
      num::SparseRows view;
      view.assign(row);
      double y = 1.5, y_ref = 1.5;
      view.gemv(-1.0, row, x.data(), &y);
      tbl.gemv(-1.0, row.ptr(), n, 1, n, x.data(), &y_ref);
      EXPECT_BITEQ(y, y_ref) << where;
    }
  }
}

std::string isa_name(const ::testing::TestParamInfo<Isa>& info) {
  return num::simd::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllTargets, SimdTargetTest,
                         ::testing::ValuesIn(num::simd::available_targets()),
                         isa_name);

// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ScalarTargetAlwaysAvailable) {
  const auto targets = num::simd::available_targets();
  bool has_scalar = false;
  for (const Isa isa : targets)
    if (isa == Isa::kScalar) has_scalar = true;
  EXPECT_TRUE(has_scalar);
}

TEST(SimdDispatchTest, ActiveTableMatchesActiveIsa) {
  EXPECT_EQ(num::simd::active_isa(), num::simd::detect_best());
  EXPECT_EQ(num::simd::active().isa, num::simd::active_isa());
  EXPECT_EQ(num::simd::table_for(num::simd::active_isa()),
            &num::simd::active());
}

TEST(SimdDispatchTest, NumericsStorageIsCacheLineAligned) {
  num::Vector v(37);
  num::Matrix m(13, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.ptr()) % num::kNumAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.ptr()) % num::kNumAlignment,
            0u);
}

}  // namespace
