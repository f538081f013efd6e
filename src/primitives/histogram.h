// Parallel histogram over a small integer range — the counting phase of
// the stable counting sort exposed as its own primitive (per-block counts,
// then a column reduction).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "primitives/scan.h"
#include "scheduler/scheduler.h"
#include "util/simd.h"

namespace parsemi {

// Block size of the per-block counting pass for n elements over num_buckets
// bins: at least num_buckets (so the count matrix never exceeds ~n entries)
// and at least the scheduler's per-worker grain.
inline size_t histogram_block_size(size_t n, size_t num_buckets) {
  size_t p = static_cast<size_t>(num_workers());
  return std::max<size_t>(std::max<size_t>(num_buckets, 4096),
                          n / (8 * p) + 1);
}
inline size_t histogram_num_blocks(size_t n, size_t block) {
  return n == 0 ? 0 : (n + block - 1) / block;
}

// Per-block counting pass into caller-provided scratch: counts becomes a
// row-major (num_blocks × num_buckets) matrix where row b holds the bucket
// histogram of elements [b*block, min((b+1)*block, n)). The caller owns the
// scratch (histogram_num_blocks(n, block) * num_buckets entries — the
// distribution kernel in primitives/counting_sort.h passes arena memory and
// stays heap-free) and the block size, so a later placement pass can
// revisit the exact same blocking. Rows are zeroed here; no column
// reduction is performed.
template <typename KeyFn>
void histogram_blocks(size_t n, size_t block, size_t num_buckets,
                      size_t* counts, KeyFn&& key) {
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    size_t* local = counts + b * num_buckets;
    std::fill(local, local + num_buckets, size_t{0});
    if constexpr (simd::kEnabled) {
      // 4-wide: the key computations (typically a hash + shift) are
      // independent, so batching them hides their latency behind the
      // (dependent) count increments.
      size_t i = lo;
      for (; i + 4 <= hi; i += 4) {
        size_t k0 = key(i), k1 = key(i + 1), k2 = key(i + 2), k3 = key(i + 3);
        local[k0]++;
        local[k1]++;
        local[k2]++;
        local[k3]++;
      }
      for (; i < hi; ++i) local[key(i)]++;
    } else {
      for (size_t i = lo; i < hi; ++i) local[key(i)]++;
    }
  });
}

// Histogram of raw index-derived keys: counts[k] = |{ i : key(i) == k }|.
template <typename KeyFn>
std::vector<size_t> histogram_index(size_t n, size_t num_buckets,
                                    KeyFn&& key) {
  size_t block = histogram_block_size(n, num_buckets);
  size_t num_blocks = histogram_num_blocks(n, block);
  std::vector<size_t> counts(num_buckets * num_blocks);
  histogram_blocks(n, block, num_buckets, counts.data(), key);
  std::vector<size_t> totals(num_buckets, 0);
  parallel_for(0, num_buckets, [&](size_t k) {
    size_t sum = 0;
    for (size_t b = 0; b < num_blocks; ++b) sum += counts[b * num_buckets + k];
    totals[k] = sum;
  });
  return totals;
}

// counts[k] = |{ i : key(a[i]) == k }| for k in [0, num_buckets).
template <typename T, typename KeyFn>
std::vector<size_t> histogram(std::span<const T> a, size_t num_buckets,
                              KeyFn&& key) {
  return histogram_index(a.size(), num_buckets,
                         [&](size_t i) { return key(a[i]); });
}

}  // namespace parsemi
