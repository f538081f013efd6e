// Stable parallel counting sort — the paper's §2 building block — and the
// one distribution kernel every record-moving counting pass runs:
// counting_sort below, the exact-count scatter (core/scatter.h), the
// dense-key dispatch passes (core/dispatch.h), the shard partition
// (shard/shard_driver.h) and the sample sorter (core/sampler.h).
//
// Three passes over n/B blocks:
//   1. count — each block counts its records per bucket   (parallel, O(n))
//   2. scan  — the bucket totals' exclusive scan is the layout, and a
//              scan down each bucket column of the (block × bucket) count
//              matrix turns row b into block b's write cursors
//                                                         (O(#blocks·m))
//   3. place — each block re-reads its records and places them at its
//              own cursors                                (parallel, O(n))
// Blocks are claimed in order within each bucket and records in order
// within each block, so the placement is stable, needs no atomics, and is
// identical at every worker count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/arena.h"
#include "primitives/histogram.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"

namespace parsemi {

// Stable distribution of n records into num_buckets buckets: block b calls
// place(i, pos) for each of its records i, pos being i's slot in the
// bucket-ordered layout. Returns that layout (num_buckets + 1 entries from
// `scratch`): bucket q is [start[q], start[q+1]) and start.back() == n.
//
// A bucket_at(i) ≥ num_buckets (say, a cached plan reused on keys outside
// its domain) is counted into one extra column — a clamp, not a branch —
// and when that column is non-empty the call returns an empty span before
// placing anything.
//
// With store_ids (honoured only below 65,535 buckets), the count pass
// keeps each record's clamped id in a 16-bit buffer and the place pass
// reads it back instead of calling bucket_at again — for a bucket function
// that costs more than the 2-byte load (core/scatter.h's heavy-key
// routing). The buffer is the kernel's last scratch allocation, so a warm
// arena grows by one block for it.
//
// bucket_at and place are taken, and captured by the loop bodies, by
// value, so callers should pass lambdas that capture raw data pointers by
// value: the place loop then keeps them in registers, where by-reference
// forwarding reloads every capture per record (EXPERIMENTS.md, "One
// distribution kernel").
template <typename BucketAt, typename PlaceFn>
std::span<size_t> distribute_stable(size_t n, size_t num_buckets,
                                    BucketAt bucket_at, PlaceFn place,
                                    arena& scratch, bool store_ids = false) {
  const size_t cols = num_buckets + 1;
  const size_t block = histogram_block_size(n, num_buckets);
  const size_t num_blocks = histogram_num_blocks(n, block);
  size_t* counts = scratch.alloc<size_t>(num_blocks * cols);
  std::span<size_t> start(scratch.alloc<size_t>(cols), cols);
  size_t scan_blocks = internal::scan_num_blocks(cols);
  std::span<size_t> scan_sums(scratch.alloc<size_t>(scan_blocks), scan_blocks);
  uint16_t* ids = store_ids && num_buckets < 0xffff
                      ? scratch.alloc<uint16_t>(n)
                      : nullptr;

  auto clamped = [bucket_at, num_buckets](size_t i) {
    return std::min(static_cast<size_t>(bucket_at(i)), num_buckets);
  };
  if (ids != nullptr) {
    histogram_blocks(n, block, cols, counts, [clamped, ids](size_t i) {
      size_t q = clamped(i);
      ids[i] = static_cast<uint16_t>(q);
      return q;
    });
  } else {
    histogram_blocks(n, block, cols, counts, clamped);
  }

  parallel_for(0, cols, [counts, num_blocks, cols, start](size_t q) {
    size_t sum = 0;
    for (size_t b = 0; b < num_blocks; ++b) sum += counts[b * cols + q];
    start[q] = sum;
  });
  if (start[num_buckets] != 0) return {};
  // The out-of-range column is empty, so the scan leaves n there.
  scan_exclusive_inplace(start, size_t{0}, scan_sums);
  parallel_for(0, num_buckets, [counts, num_blocks, cols, start](size_t q) {
    scan_exclusive_strided(counts + q, num_blocks, cols, start[q]);
  });

  auto place_all = [n, block, counts, cols, place](auto id_of) {
    parallel_for_blocks(
        n, block, [counts, cols, id_of, place](size_t b, size_t lo, size_t hi) {
          size_t* cursor = counts + b * cols;
          for (size_t i = lo; i < hi; ++i) place(i, cursor[id_of(i)]++);
        });
  };
  if (ids != nullptr) {
    place_all([ids](size_t i) { return static_cast<size_t>(ids[i]); });
  } else {
    place_all(bucket_at);
  }
  return start;
}

// Stably sorts `in` into `out` (same length) by key(in[i]) ∈ [0, num_buckets).
// If `bucket_starts` is non-null it receives num_buckets+1 boundaries, i.e.
// bucket b occupies out[(*bucket_starts)[b], (*bucket_starts)[b+1]).
// Throws std::invalid_argument, with `out` untouched, when some key is
// ≥ num_buckets.
template <typename T, typename KeyFn>
void counting_sort(std::span<const T> in, std::span<T> out,
                   size_t num_buckets, KeyFn&& key,
                   std::vector<size_t>* bucket_starts = nullptr) {
  arena scratch;
  const T* src = in.data();
  T* dst = out.data();
  std::span<size_t> start = distribute_stable(
      in.size(), num_buckets,
      [src, key](size_t i) { return static_cast<size_t>(key(src[i])); },
      [src, dst](size_t i, size_t pos) { dst[pos] = src[i]; }, scratch);
  if (start.empty()) {
    throw std::invalid_argument(
        "parsemi::counting_sort: a key is outside [0, num_buckets)");
  }
  if (bucket_starts != nullptr)
    bucket_starts->assign(start.begin(), start.end());
}

// Sequential reference (used for tests and tiny inputs).
template <typename T, typename KeyFn>
void counting_sort_seq(std::span<const T> in, std::span<T> out,
                       size_t num_buckets, KeyFn&& key) {
  std::vector<size_t> counts(num_buckets + 1, 0);
  for (const T& x : in) counts[key(x) + 1]++;
  for (size_t q = 1; q <= num_buckets; ++q) counts[q] += counts[q - 1];
  for (const T& x : in) out[counts[key(x)]++] = x;
}

}  // namespace parsemi
