// NEON target (aarch64): two 2-lane float64x2_t registers per logical
// 4-lane pack, mirroring the SSE2 layout. NEON is baseline on aarch64, so
// no runtime CPU check is needed — availability is a build-time property.
// vmulq/vaddq are used instead of vfmaq for bitwise identity with the
// other targets (see kernels_avx2.cpp).
#include "numerics/simd_blocked.hpp"

#if defined(__aarch64__) || defined(__ARM_NEON)
#include <arm_neon.h>

namespace evc::num::simd {
namespace {

struct PackNeon {
  float64x2_t lo, hi;

  static PackNeon load(const double* p) {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
  static void store(double* p, PackNeon v) {
    vst1q_f64(p, v.lo);
    vst1q_f64(p + 2, v.hi);
  }
  static PackNeon broadcast(double a) {
    const float64x2_t v = vdupq_n_f64(a);
    return {v, v};
  }
  static PackNeon zero() {
    const float64x2_t v = vdupq_n_f64(0.0);
    return {v, v};
  }
  static PackNeon add(PackNeon x, PackNeon y) {
    return {vaddq_f64(x.lo, y.lo), vaddq_f64(x.hi, y.hi)};
  }
  static PackNeon sub(PackNeon x, PackNeon y) {
    return {vsubq_f64(x.lo, y.lo), vsubq_f64(x.hi, y.hi)};
  }
  static PackNeon mul(PackNeon x, PackNeon y) {
    return {vmulq_f64(x.lo, y.lo), vmulq_f64(x.hi, y.hi)};
  }
  static PackNeon div(PackNeon x, PackNeon y) {
    return {vdivq_f64(x.lo, y.lo), vdivq_f64(x.hi, y.hi)};
  }
  static PackNeon where_nonzero(PackNeon c, PackNeon x, PackNeon y) {
    // A lane equal to zero takes y; a NaN lane compares unequal and
    // takes x.
    const float64x2_t zero = vdupq_n_f64(0.0);
    return {vbslq_f64(vceqq_f64(c.lo, zero), y.lo, x.lo),
            vbslq_f64(vceqq_f64(c.hi, zero), y.hi, x.hi)};
  }
  static double reduce(PackNeon v) {
    const float64x2_t s = vaddq_f64(v.lo, v.hi);  // (l0+l2, l1+l3)
    return vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1);
  }
};

}  // namespace

const KernelTable* neon_table() {
  static const KernelTable table = BlockedKernels<PackNeon>::table(Isa::kNeon);
  return &table;
}

}  // namespace evc::num::simd

#else  // non-ARM build: target not available

namespace evc::num::simd {
const KernelTable* neon_table() { return nullptr; }
}  // namespace evc::num::simd

#endif
