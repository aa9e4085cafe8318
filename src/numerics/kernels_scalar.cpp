// Blocked scalar reference target — the bit pattern every vector target
// must reproduce. Compiled with -ffp-contract=off (see CMakeLists) so the
// four-lane arithmetic cannot be fused into FMAs on hosts that have them.
#include "numerics/simd_blocked.hpp"

namespace evc::num::simd {
namespace {

// Four explicit double lanes; the compiler is free to auto-vectorize this
// (the semantics, and therefore the bits, do not change).
struct PackScalar {
  double l0, l1, l2, l3;

  static PackScalar load(const double* p) { return {p[0], p[1], p[2], p[3]}; }
  static void store(double* p, PackScalar v) {
    p[0] = v.l0;
    p[1] = v.l1;
    p[2] = v.l2;
    p[3] = v.l3;
  }
  static PackScalar broadcast(double a) { return {a, a, a, a}; }
  static PackScalar zero() { return {0.0, 0.0, 0.0, 0.0}; }
  static PackScalar add(PackScalar x, PackScalar y) {
    return {x.l0 + y.l0, x.l1 + y.l1, x.l2 + y.l2, x.l3 + y.l3};
  }
  static PackScalar sub(PackScalar x, PackScalar y) {
    return {x.l0 - y.l0, x.l1 - y.l1, x.l2 - y.l2, x.l3 - y.l3};
  }
  static PackScalar mul(PackScalar x, PackScalar y) {
    return {x.l0 * y.l0, x.l1 * y.l1, x.l2 * y.l2, x.l3 * y.l3};
  }
  static PackScalar div(PackScalar x, PackScalar y) {
    return {x.l0 / y.l0, x.l1 / y.l1, x.l2 / y.l2, x.l3 / y.l3};
  }
  static PackScalar where_nonzero(PackScalar c, PackScalar x, PackScalar y) {
    return {c.l0 != 0.0 ? x.l0 : y.l0, c.l1 != 0.0 ? x.l1 : y.l1,
            c.l2 != 0.0 ? x.l2 : y.l2, c.l3 != 0.0 ? x.l3 : y.l3};
  }
  static double reduce(PackScalar v) { return (v.l0 + v.l2) + (v.l1 + v.l3); }
};

}  // namespace

const KernelTable* scalar_table() {
  static const KernelTable table =
      BlockedKernels<PackScalar>::table(Isa::kScalar);
  return &table;
}

}  // namespace evc::num::simd
