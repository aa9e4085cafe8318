#include "numerics/simd.hpp"

#include "numerics/simd_blocked.hpp"

namespace evc::num::simd {

namespace {

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      // SSE2 is part of the x86-64 baseline; AVX2 needs a cpuid check
      // (done once — __builtin_cpu_supports caches the cpuid result).
      return isa == Isa::kSse2 ? true : __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

Isa detect_best() {
  if (table_for(Isa::kAvx2) != nullptr) return Isa::kAvx2;
  if (table_for(Isa::kNeon) != nullptr) return Isa::kNeon;
  if (table_for(Isa::kSse2) != nullptr) return Isa::kSse2;
  return Isa::kScalar;
}

Isa active_isa() {
  // Resolved exactly once; every subsequent call (and therefore every
  // kernel dispatch in the process) sees the same target.
  static const Isa isa = detect_best();
  return isa;
}

const KernelTable& active() {
  static const KernelTable& table = *table_for(active_isa());
  return table;
}

const KernelTable* table_for(Isa isa) {
  if (!cpu_supports(isa)) return nullptr;
  switch (isa) {
    case Isa::kScalar:
      return scalar_table();
    case Isa::kSse2:
      return sse2_table();
    case Isa::kAvx2:
      return avx2_table();
    case Isa::kNeon:
      return neon_table();
  }
  return nullptr;
}

std::vector<Isa> available_targets() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kNeon})
    if (table_for(isa) != nullptr) out.push_back(isa);
  return out;
}

}  // namespace evc::num::simd
