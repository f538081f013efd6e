// Bottom-up (LSB) radix sort with per-bucket software write buffers — a
// simplified stand-in for the heavily-optimized main-memory radix sort of
// Polychroniou & Ross (SIGMOD'14) that the paper discusses in §5.5.
//
// Each pass partitions on 8 low bits: per-block histograms, a scan, then a
// scatter that batches writes per bucket through small cache-resident
// buffers before flushing them with streaming copies — the key trick of
// the optimized partitioning sorts (fewer TLB misses and write-combining-
// friendly stores). LSB passes are stable, so k passes fully sort k·8-bit
// keys.
//
// The paper's observation to reproduce (§5.5): this style of sort is very
// fast on balanced (uniform) key distributions but "did not work [well] on
// more skewed distributions" — when one bucket receives most records, the
// buffered partitioning degenerates while the semisort's heavy-key path
// does not. Our simplified version stays *correct* on skew (it just gets
// slower); the bench compares throughputs.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "primitives/scan.h"
#include "scheduler/scheduler.h"

namespace parsemi {

namespace internal {

inline constexpr size_t kLsbRadixBits = 8;
inline constexpr size_t kLsbBuckets = 1ull << kLsbRadixBits;
inline constexpr size_t kLsbBufferSlots = 32;  // per-bucket staging buffer

// One stable LSB partition pass from `in` to `out` on bits
// [shift, shift + 8). Parallel across blocks; each block stages its writes
// in per-bucket buffers so stores to `out` happen a cache line at a time.
template <typename T, typename KeyFn>
void lsb_pass(std::span<const T> in, std::span<T> out, int shift,
              KeyFn& key) {
  size_t n = in.size();
  size_t p = static_cast<size_t>(num_workers());
  size_t block = std::max<size_t>(1 << 16, n / (8 * p) + 1);
  size_t num_blocks = (n + block - 1) / block;

  // Bucket-major counts, so a flat scan yields each (bucket, block) write
  // cursor.
  std::vector<size_t> counts(kLsbBuckets * num_blocks, 0);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i)
      counts[((key(in[i]) >> shift) & (kLsbBuckets - 1)) * num_blocks + b]++;
  });
  scan_exclusive_inplace(std::span<size_t>(counts));

  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    size_t cursor[kLsbBuckets];
    for (size_t q = 0; q < kLsbBuckets; ++q)
      cursor[q] = counts[q * num_blocks + b];
    // Staging buffers: flush kLsbBufferSlots records per bucket at a time.
    std::vector<T> buffer(kLsbBuckets * kLsbBufferSlots);
    uint8_t fill[kLsbBuckets] = {};
    for (size_t i = lo; i < hi; ++i) {
      size_t q = (key(in[i]) >> shift) & (kLsbBuckets - 1);
      buffer[q * kLsbBufferSlots + fill[q]] = in[i];
      if (++fill[q] == kLsbBufferSlots) {
        std::memcpy(out.data() + cursor[q], buffer.data() + q * kLsbBufferSlots,
                    kLsbBufferSlots * sizeof(T));
        cursor[q] += kLsbBufferSlots;
        fill[q] = 0;
      }
    }
    for (size_t q = 0; q < kLsbBuckets; ++q) {
      if (fill[q] != 0) {
        std::memcpy(out.data() + cursor[q], buffer.data() + q * kLsbBufferSlots,
                    fill[q] * sizeof(T));
      }
    }
  });
}

}  // namespace internal

// Sorts `a` by the 64-bit key, least-significant byte first. `max_key`
// limits the number of passes. Requires trivially-copyable T.
template <typename T, typename KeyFn>
void lsb_radix_sort(std::span<T> a, KeyFn key, uint64_t max_key = ~0ULL) {
  static_assert(std::is_trivially_copyable_v<T>);
  size_t n = a.size();
  if (n <= 1) return;
  if (n <= 1 << 13) {
    std::sort(a.begin(), a.end(),
              [&](const T& x, const T& y) { return key(x) < key(y); });
    return;
  }
  int bits = 64 - std::countl_zero(max_key | 1);
  int passes = (bits + static_cast<int>(internal::kLsbRadixBits) - 1) /
               static_cast<int>(internal::kLsbRadixBits);
  std::vector<T> buffer(n);
  std::span<T> src = a;
  std::span<T> dst(buffer);
  for (int pass = 0; pass < passes; ++pass) {
    internal::lsb_pass(std::span<const T>(src), dst,
                       pass * static_cast<int>(internal::kLsbRadixBits), key);
    std::swap(src, dst);
  }
  if (src.data() != a.data()) std::copy(src.begin(), src.end(), a.begin());
}

inline void lsb_radix_sort_u64(std::span<uint64_t> a,
                               uint64_t max_key = ~0ULL) {
  lsb_radix_sort(a, [](uint64_t x) { return x; }, max_key);
}

}  // namespace parsemi
