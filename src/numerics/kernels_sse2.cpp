// SSE2 target: the logical 4-lane pack is two 2-lane __m128d registers.
// SSE2 is part of the x86-64 baseline, so this target always exists on
// x86-64 builds. Lane order matches the blocked scalar reference exactly:
// lo = lanes {0,1}, hi = lanes {2,3}, reduce = (l0+l2) + (l1+l3).
#include "numerics/simd_blocked.hpp"

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>

namespace evc::num::simd {
namespace {

struct PackSse2 {
  __m128d lo, hi;

  static PackSse2 load(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static void store(double* p, PackSse2 v) {
    _mm_storeu_pd(p, v.lo);
    _mm_storeu_pd(p + 2, v.hi);
  }
  static PackSse2 broadcast(double a) {
    const __m128d v = _mm_set1_pd(a);
    return {v, v};
  }
  static PackSse2 zero() {
    const __m128d v = _mm_setzero_pd();
    return {v, v};
  }
  static PackSse2 add(PackSse2 x, PackSse2 y) {
    return {_mm_add_pd(x.lo, y.lo), _mm_add_pd(x.hi, y.hi)};
  }
  static PackSse2 sub(PackSse2 x, PackSse2 y) {
    return {_mm_sub_pd(x.lo, y.lo), _mm_sub_pd(x.hi, y.hi)};
  }
  static PackSse2 mul(PackSse2 x, PackSse2 y) {
    return {_mm_mul_pd(x.lo, y.lo), _mm_mul_pd(x.hi, y.hi)};
  }
  static PackSse2 div(PackSse2 x, PackSse2 y) {
    return {_mm_div_pd(x.lo, y.lo), _mm_div_pd(x.hi, y.hi)};
  }
  static PackSse2 where_nonzero(PackSse2 c, PackSse2 x, PackSse2 y) {
    // cmpneq is unordered not-equal, so a NaN lane of c selects x.
    const __m128d zero = _mm_setzero_pd();
    const __m128d lo = _mm_cmpneq_pd(c.lo, zero);
    const __m128d hi = _mm_cmpneq_pd(c.hi, zero);
    return {_mm_or_pd(_mm_and_pd(lo, x.lo), _mm_andnot_pd(lo, y.lo)),
            _mm_or_pd(_mm_and_pd(hi, x.hi), _mm_andnot_pd(hi, y.hi))};
  }
  static double reduce(PackSse2 v) {
    // lo+hi = (l0+l2, l1+l3); then sum the two halves in that order.
    const __m128d s = _mm_add_pd(v.lo, v.hi);
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};

}  // namespace

const KernelTable* sse2_table() {
  static const KernelTable table = BlockedKernels<PackSse2>::table(Isa::kSse2);
  return &table;
}

}  // namespace evc::num::simd

#else  // non-x86 build: target not available

namespace evc::num::simd {
const KernelTable* sse2_table() { return nullptr; }
}  // namespace evc::num::simd

#endif
