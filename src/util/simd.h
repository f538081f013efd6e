// Fixed-width SIMD abstraction for the hot loops (ROADMAP item 4).
//
// Design contract (see DESIGN.md "SIMD abstraction & hot loops"):
//   - Compile-time dispatch only: the tier is chosen from __AVX2__ /
//     __SSE2__ at build time (no cpuid, no function pointers — the hot
//     loops are too small to amortize an indirect call). The SSE tier
//     restricts itself to true SSE2 intrinsics so it compiles on
//     baseline x86-64 with no -m flags at all.
//   - Every entry point has a bit-exact scalar reference in
//     `simd::scalar::`, and the dispatched form compiles to exactly that
//     reference at tier 0. simd_test proves dispatched == scalar on every
//     op over property-generated inputs.
//   - `PARSEMI_SIMD=OFF` (CMake) defines PARSEMI_SIMD_OFF and forces tier
//     0 regardless of ISA, giving CI a portable build and the perf gate a
//     true "before" baseline (the pre-vectorization loop shapes).
//   - No allocation anywhere: every helper works on caller memory only, so
//     the warm-path zero-alloc contract (alloc_regression_test) holds.
//
// The per-phase stats (`semisort_stats::simd_*_width`) report
// `kWidthBits` when a phase's accelerated kernel engaged: 256/128 mean a
// vector tier ran, 64 means the scalar tier ran (forced or no ISA), 0
// means the phase's path has no accelerated kernel (e.g. blocked scatter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if !defined(PARSEMI_SIMD_OFF) && (defined(__AVX2__) || defined(__SSE2__))
#include <immintrin.h>
#else
// Tier 0: no vector headers — everything below compiles to the scalar
// reference implementations.
#endif

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

// ThreadSanitizer cannot see that the scatter prescan's plain vector loads
// are advisory (the CAS in try_claim is the only authority) — keep the
// vector prescan out of TSan builds so the race checker stays precise.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsan = true;
#else
inline constexpr bool kTsan = false;
#endif
#else
inline constexpr bool kTsan = false;
#endif

// ---------------------------------------------------------------------------
// Scalar reference implementations (always compiled; simd_test compares the
// dispatched entry points against these bit-for-bit).
// ---------------------------------------------------------------------------

namespace scalar {

// Bitmask (bits 0..3) of which of the 4 records starting at `p`, laid out
// `stride` bytes apart, hold `needle` in their leading 8-byte key word.
inline unsigned match_key4(const void* p, size_t stride, uint64_t needle) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  unsigned mask = 0;
  for (unsigned lane = 0; lane < 4; ++lane) {
    uint64_t k;
    std::memcpy(&k, b + lane * stride, sizeof(k));
    mask |= (k == needle ? 1u : 0u) << lane;
  }
  return mask;
}

// Length of the maximal prefix of `count` records at `p` (stride bytes
// apart) whose leading 8-byte key word differs from `sentinel` — i.e. how
// many leading slots are occupied, in scatter_storage key-CAS terms.
inline size_t occupied_prefix_len(const void* p, size_t stride, size_t count,
                                  uint64_t sentinel) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  size_t i = 0;
  for (; i < count; ++i) {
    uint64_t k;
    std::memcpy(&k, b + i * stride, sizeof(k));
    if (k == sentinel) break;
  }
  return i;
}

// Dual of occupied_prefix_len: how many leading slots hold the sentinel
// (i.e. the length of the leading hole run).
inline size_t hole_prefix_len(const void* p, size_t stride, size_t count,
                              uint64_t sentinel) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  size_t i = 0;
  for (; i < count; ++i) {
    uint64_t k;
    std::memcpy(&k, b + i * stride, sizeof(k));
    if (k != sentinel) break;
  }
  return i;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched entry points.
// ---------------------------------------------------------------------------

// match_key4 — the scatter prescan kernel. The vector form exists for
// 16-byte records (the key-CAS layouts that matter: key_tag and
// {uint64_t,uint64_t} pairs): two 256-bit loads cover 4 records, and the
// key qwords are collected gather-free with unpacklo + a cross-lane
// permute. Other strides take the 4-wide scalar form (still superscalar:
// four independent load/compare chains).
//
// Concurrency note: callers may point this at slots that other threads are
// CAS-ing concurrently. Each 64-bit lane is read in one aligned hardware
// load, and the caller treats the result as advisory (every hit is
// re-verified by an atomic CAS), so torn/stale lanes only cost a retry.
template <size_t Stride>
inline unsigned match_key4(const void* p, uint64_t needle) {
  static_assert(Stride >= 8, "key word must fit in the record");
#if PARSEMI_SIMD_TIER >= 2
  if constexpr (Stride == 16) {
    const __m256i* v = static_cast<const __m256i*>(p);
    __m256i lo = _mm256_loadu_si256(v);      // rec0.key rec0.pay rec1.key rec1.pay
    __m256i hi = _mm256_loadu_si256(v + 1);  // rec2.key rec2.pay rec3.key rec3.pay
    // unpacklo on 64-bit lanes within each 128-bit half yields
    // [rec0.key rec2.key | rec1.key rec3.key]; the permute restores index
    // order so the returned mask bits line up with record indices.
    __m256i keys = _mm256_unpacklo_epi64(lo, hi);
    keys = _mm256_permute4x64_epi64(keys, _MM_SHUFFLE(3, 1, 2, 0));
    __m256i eq = _mm256_cmpeq_epi64(keys, _mm256_set1_epi64x(
                                              static_cast<int64_t>(needle)));
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
  } else {
    return scalar::match_key4(p, Stride, needle);
  }
#elif PARSEMI_SIMD_TIER == 1
  if constexpr (Stride == 16) {
    const __m128i* v = static_cast<const __m128i*>(p);
    __m128i ab = _mm_unpacklo_epi64(_mm_loadu_si128(v), _mm_loadu_si128(v + 1));
    __m128i cd =
        _mm_unpacklo_epi64(_mm_loadu_si128(v + 2), _mm_loadu_si128(v + 3));
    __m128i n = _mm_set1_epi64x(static_cast<int64_t>(needle));
    // 64-bit lane equality from SSE2 primitives (_mm_cmpeq_epi64 is
    // SSE4.1, and this tier must compile on baseline x86-64 where only
    // __SSE2__ is implied): compare 32-bit lanes, then AND each half
    // with its partner so a 64-bit lane is all-ones iff both halves
    // matched.
    __m128i eq_ab = _mm_cmpeq_epi32(ab, n);
    eq_ab = _mm_and_si128(eq_ab,
                          _mm_shuffle_epi32(eq_ab, _MM_SHUFFLE(2, 3, 0, 1)));
    __m128i eq_cd = _mm_cmpeq_epi32(cd, n);
    eq_cd = _mm_and_si128(eq_cd,
                          _mm_shuffle_epi32(eq_cd, _MM_SHUFFLE(2, 3, 0, 1)));
    unsigned lo =
        static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(eq_ab)));
    unsigned hi =
        static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(eq_cd)));
    return lo | (hi << 2);
  } else {
    return scalar::match_key4(p, Stride, needle);
  }
#else
  return scalar::match_key4(p, Stride, needle);
#endif
}

// occupied_prefix_len — the local-sort compaction kernel: how many leading
// slots of a bucket hold a record (key word != sentinel). The blocked
// scatter path fills buckets front-to-back, so this prefix IS the
// bucket's record count and the per-slot compaction sweep disappears; the
// CAS path uses it to skip the dense prefix before compacting. Rides the
// match_key4 lane-extraction (sentinel hits are holes), 4 slots per step.
template <size_t Stride>
inline size_t occupied_prefix_len(const void* p, size_t count,
                                  uint64_t sentinel) {
  if constexpr (Stride == 16 && kTier > 0) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    size_t i = 0;
    while (i + 4 <= count) {
      unsigned holes = match_key4<Stride>(b + i * Stride, sentinel);
      if (holes != 0)
        return i + static_cast<size_t>(__builtin_ctz(holes));
      i += 4;
    }
    return i + scalar::occupied_prefix_len(b + i * Stride, Stride, count - i,
                                           sentinel);
  } else {
    return scalar::occupied_prefix_len(p, Stride, count, sentinel);
  }
}

// hole_prefix_len — the pack compaction kernel's dual scan: length of the
// leading all-sentinel run. Together with occupied_prefix_len it walks
// storage as alternating occupied/hole runs, so dense layouts (the
// blocked scatter path) compact with a handful of bulk moves
// instead of one copy per slot.
template <size_t Stride>
inline size_t hole_prefix_len(const void* p, size_t count, uint64_t sentinel) {
  if constexpr (Stride == 16 && kTier > 0) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    size_t i = 0;
    while (i + 4 <= count) {
      unsigned holes = match_key4<Stride>(b + i * Stride, sentinel);
      if (holes != 0xFu)
        return i + static_cast<size_t>(__builtin_ctz(~holes & 0xFu));
      i += 4;
    }
    return i +
           scalar::hole_prefix_len(b + i * Stride, Stride, count - i, sentinel);
  } else {
    return scalar::hole_prefix_len(p, Stride, count, sentinel);
  }
}

// The width the probe prescan actually runs at for a given record stride —
// feeds semisort_stats::simd_scatter_width.
template <size_t Stride>
inline constexpr size_t probe_width() {
  return (Stride == 16 && kTier > 0) ? kWidthBits : 64;
}

// copy_records — the pack kernel. For trivially-copyable records one
// memcpy covers the run (glibc's memcpy is already vector-widened and
// beats an element loop from ~2 records up); the generic form keeps
// assignment semantics for everything else.
template <typename Record>
inline void copy_records(Record* dst, const Record* src, size_t count) {
  if constexpr (std::is_trivially_copyable_v<Record>) {
    std::memcpy(static_cast<void*>(dst), static_cast<const void*>(src),
                count * sizeof(Record));
  } else {
    for (size_t i = 0; i < count; ++i) dst[i] = src[i];
  }
}

// Branchless compare-exchange on (key, record) pairs — the sorting-network
// primitive. The ternary selects compile to cmov / vector blends for
// trivially-copyable records; no branch, so the network's fixed schedule
// never mispredicts.
template <typename Record>
inline void cswap(uint64_t& ka, uint64_t& kb, Record& ra, Record& rb) {
  const bool s = kb < ka;
  const uint64_t k0 = ka, k1 = kb;
  ka = s ? k1 : k0;
  kb = s ? k0 : k1;
  const Record r0 = ra, r1 = rb;
  ra = s ? r1 : r0;
  rb = s ? r0 : r1;
}

}  // namespace simd
}  // namespace parsemi
