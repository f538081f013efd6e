// Compile-time hot-loop tier for the batched and unrolled loop shapes.
//
// Design contract (see DESIGN.md "SIMD abstraction & hot loops"):
//   - Compile-time dispatch only: the tier is chosen from __AVX2__ /
//     __SSE2__ at build time (no cpuid, no function pointers — the hot
//     loops are too small to amortize an indirect call). No intrinsics:
//     the accelerated shapes are independent scalar chains (interleaved
//     hashing, 4-wide histogram keys) and the local-sort radix kernel
//     (core/local_sort.h).
//   - Every accelerated shape keeps its plain loop beside it, selected
//     when `kEnabled` is false. The hashing and histogram shapes are
//     bit-exact with their plain loops; the radix kernel yields the same
//     key sequence as its std::sort reference, in stable order.
//     copy_records below is the same on every tier.
//   - `PARSEMI_SIMD=OFF` (CMake) defines PARSEMI_SIMD_OFF and forces tier
//     0 regardless of ISA, giving CI a portable build and the perf gate a
//     true "before" baseline (the pre-vectorization loop shapes).
//   - No allocation anywhere: every helper works on caller memory only, so
//     the warm-path zero-alloc contract (alloc_regression_test) holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace parsemi {
namespace simd {

// ---------------------------------------------------------------------------
// Tier selection.
// ---------------------------------------------------------------------------

#if !defined(PARSEMI_SIMD_OFF) && defined(__AVX2__)
#define PARSEMI_SIMD_TIER 2
#elif !defined(PARSEMI_SIMD_OFF) && defined(__SSE2__)
#define PARSEMI_SIMD_TIER 1
#else
#define PARSEMI_SIMD_TIER 0
#endif

inline constexpr int kTier = PARSEMI_SIMD_TIER;
inline constexpr size_t kWidthBits = kTier == 2 ? 256 : kTier == 1 ? 128 : 64;
inline constexpr bool kEnabled = kTier > 0;

inline constexpr const char* isa_name() {
  return kTier == 2 ? "avx2" : kTier == 1 ? "sse2" : "scalar";
}

// copy_records — the pack kernel. For trivially-copyable records one
// memcpy covers the run (glibc's memcpy is already vector-widened and
// beats an element loop from ~2 records up); the generic form keeps
// assignment semantics for everything else. An empty range may come with
// null pointers, which memcpy must not be passed even for zero bytes.
template <typename Record>
inline void copy_records(Record* dst, const Record* src, size_t count) {
  if (count == 0) return;
  if constexpr (std::is_trivially_copyable_v<Record>) {
    std::memcpy(static_cast<void*>(dst), static_cast<const void*>(src),
                count * sizeof(Record));
  } else {
    for (size_t i = 0; i < count; ++i) dst[i] = src[i];
  }
}

}  // namespace simd
}  // namespace parsemi
