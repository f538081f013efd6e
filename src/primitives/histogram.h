// Parallel histogram over a small integer range — the counting pass of the
// stable distribution kernel (primitives/counting_sort.h) and of
// count_by_key's offset path (core/dispatch.h): per-block counts, which the
// caller reduces or scans by column.
#pragma once

#include <algorithm>
#include <cstddef>

#include "scheduler/scheduler.h"

namespace parsemi {

// Block size of the per-block counting pass for n elements over num_buckets
// bins on `workers` workers: at least num_buckets (so the count matrix never
// exceeds ~n entries) and at least the per-worker grain. The second form
// takes the scheduler's worker count; the shard planner's scratch model
// (core/planner.h) names the count of the pool a plan will run on.
inline size_t histogram_block_size(size_t n, size_t num_buckets,
                                   size_t workers) {
  return std::max<size_t>(std::max<size_t>(num_buckets, 4096),
                          n / (8 * workers) + 1);
}
inline size_t histogram_block_size(size_t n, size_t num_buckets) {
  return histogram_block_size(n, num_buckets,
                              static_cast<size_t>(num_workers()));
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
  });
}

}  // namespace parsemi
