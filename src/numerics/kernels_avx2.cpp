// AVX2 target: one 4-lane __m256d per logical pack. This TU is compiled
// with -mavx2 (see CMakeLists); whether it actually runs is decided at
// startup by cpuid, so the binary stays safe on SSE2-only hosts.
//
// Deliberately no FMA: vfmadd rounds once where mul+add rounds twice, which
// would break bitwise identity with the SSE2/NEON/scalar targets. The
// throughput win here comes from width, not fusion.
#include "numerics/simd_blocked.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

namespace evc::num::simd {
namespace {

struct PackAvx2 {
  __m256d v;

  static PackAvx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static void store(double* p, PackAvx2 x) { _mm256_storeu_pd(p, x.v); }
  static PackAvx2 broadcast(double a) { return {_mm256_set1_pd(a)}; }
  static PackAvx2 zero() { return {_mm256_setzero_pd()}; }
  static PackAvx2 add(PackAvx2 x, PackAvx2 y) {
    return {_mm256_add_pd(x.v, y.v)};
  }
  static PackAvx2 sub(PackAvx2 x, PackAvx2 y) {
    return {_mm256_sub_pd(x.v, y.v)};
  }
  static PackAvx2 mul(PackAvx2 x, PackAvx2 y) {
    return {_mm256_mul_pd(x.v, y.v)};
  }
  static PackAvx2 div(PackAvx2 x, PackAvx2 y) {
    return {_mm256_div_pd(x.v, y.v)};
  }
  static PackAvx2 where_nonzero(PackAvx2 c, PackAvx2 x, PackAvx2 y) {
    // Unordered not-equal, so a NaN lane of c selects x.
    const __m256d nonzero =
        _mm256_cmp_pd(c.v, _mm256_setzero_pd(), _CMP_NEQ_UQ);
    return {_mm256_blendv_pd(y.v, x.v, nonzero)};
  }
  static double reduce(PackAvx2 x) {
    // low half (l0,l1) + high half (l2,l3) = (l0+l2, l1+l3), then sum the
    // two halves — the same tree as every other target.
    const __m128d s =
        _mm_add_pd(_mm256_castpd256_pd128(x.v), _mm256_extractf128_pd(x.v, 1));
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable table = BlockedKernels<PackAvx2>::table(Isa::kAvx2);
  return &table;
}

}  // namespace evc::num::simd

#else  // build without AVX2 support: target not available

namespace evc::num::simd {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace evc::num::simd

#endif
