// Blocked parallel prefix sums (scans).
//
// Classic three-pass formulation: (1) sum each block in parallel, (2) scan
// the per-block sums, (3) scan each block in parallel seeded with its
// block offset. O(n) work, O(log n) depth with the recursive block-sum scan
// (our block counts are small enough that a sequential pass over them is
// faster in practice and still O(n/B + B) ⊂ o(n)).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "scheduler/scheduler.h"

namespace parsemi {

namespace internal {
inline size_t scan_block_size(size_t n) {
  size_t p = static_cast<size_t>(num_workers());
  return std::max<size_t>(2048, n / (8 * p) + 1);
}
// Blocks the parallel scan/reduce paths would use for `n` elements — the
// scratch sizing contract of the span-scratch overloads below.
inline size_t scan_num_blocks(size_t n) {
  size_t block = scan_block_size(n);
  return n == 0 ? 0 : (n + block - 1) / block;
}
}  // namespace internal

// Exclusive in-place scan with + over caller-provided per-block scratch
// (≥ internal::scan_num_blocks(a.size()) elements; only needed when the
// parallel path runs). a[i] becomes init + sum of a[0..i); returns the
// total. The arena-backed pipeline uses this form to stay allocation-free.
template <typename T>
T scan_exclusive_inplace(std::span<T> a, T init, std::span<T> block_sums) {
  size_t n = a.size();
  if (n == 0) return init;
  size_t block = internal::scan_block_size(n);
  if (n <= block || num_workers() == 1) {
    T running = init;
    for (size_t i = 0; i < n; ++i) {
      T next = running + a[i];
      a[i] = running;
      running = next;
    }
    return running;
  }
  size_t num_blocks = (n + block - 1) / block;
  std::span<T> sums = block_sums.first(num_blocks);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    T s{};
    for (size_t i = lo; i < hi; ++i) s += a[i];
    sums[b] = s;
  });
  T running = init;
  for (size_t b = 0; b < num_blocks; ++b) {
    T next = running + sums[b];
    sums[b] = running;
    running = next;
  }
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    T acc = sums[b];
    for (size_t i = lo; i < hi; ++i) {
      T next = acc + a[i];
      a[i] = acc;
      acc = next;
    }
  });
  return running;
}

// Exclusive in-place scan with +: a[i] becomes init + sum of a[0..i).
// Returns the total (init + sum of all input elements).
template <typename T>
T scan_exclusive_inplace(std::span<T> a, T init = T{}) {
  size_t n = a.size();
  if (n == 0) return init;
  size_t block = internal::scan_block_size(n);
  if (n <= block || num_workers() == 1)
    return scan_exclusive_inplace(a, init, std::span<T>{});
  std::vector<T> sums(internal::scan_num_blocks(n));
  return scan_exclusive_inplace(a, init, std::span<T>(sums));
}

// Sequential exclusive scan over a strided sequence — one column of a
// row-major (count × stride) matrix: element k is a[k * stride]. Each
// a[k*stride] becomes init + sum of the elements before it; returns the
// column total (init included). The distribution kernel
// (primitives/counting_sort.h) runs this per bucket column of its
// (block × bucket) count matrix, parallel across columns, to turn
// per-block counts into absolute placement offsets.
template <typename T>
T scan_exclusive_strided(T* a, size_t count, size_t stride, T init = T{}) {
  T running = init;
  for (size_t k = 0; k < count; ++k) {
    T next = running + a[k * stride];
    a[k * stride] = running;
    running = next;
  }
  return running;
}

// Inclusive in-place scan: a[i] becomes init + sum of a[0..i].
// Returns the total.
template <typename T>
T scan_inclusive_inplace(std::span<T> a, T init = T{}) {
  size_t n = a.size();
  if (n == 0) return init;
  size_t block = internal::scan_block_size(n);
  size_t num_blocks = (n + block - 1) / block;
  std::vector<T> sums(num_blocks);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    T s{};
    for (size_t i = lo; i < hi; ++i) s += a[i];
    sums[b] = s;
  });
  T running = init;
  for (size_t b = 0; b < num_blocks; ++b) {
    T next = running + sums[b];
    sums[b] = running;
    running = next;
  }
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    T acc = sums[b];
    for (size_t i = lo; i < hi; ++i) {
      acc += a[i];
      a[i] = acc;
    }
  });
  return running;
}

// Parallel reduction with +.
template <typename T>
T reduce(std::span<const T> a, T init = T{}) {
  size_t n = a.size();
  size_t block = internal::scan_block_size(n);
  if (n <= block || num_workers() == 1) {
    T s = init;
    for (size_t i = 0; i < n; ++i) s += a[i];
    return s;
  }
  size_t num_blocks = (n + block - 1) / block;
  std::vector<T> sums(num_blocks);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    T s{};
    for (size_t i = lo; i < hi; ++i) s += a[i];
    sums[b] = s;
  });
  T s = init;
  for (T v : sums) s += v;
  return s;
}

// Parallel reduction of f(i) over [0, n) into caller-provided per-block
// scratch (≥ internal::scan_num_blocks(n) elements).
template <typename T, typename F>
T reduce_index(size_t n, F&& f, T init, std::span<T> block_sums) {
  if (n == 0) return init;
  size_t block = internal::scan_block_size(n);
  size_t num_blocks = (n + block - 1) / block;
  std::span<T> sums = block_sums.first(num_blocks);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    T s{};
    for (size_t i = lo; i < hi; ++i) s += f(i);
    sums[b] = s;
  });
  T s = init;
  for (T v : sums) s += v;
  return s;
}

// Parallel reduction of f(i) over i in [0, n) with a commutative +.
template <typename T, typename F>
T reduce_index(size_t n, F&& f, T init = T{}) {
  if (n == 0) return init;
  std::vector<T> sums(internal::scan_num_blocks(n));
  return reduce_index(n, f, init, std::span<T>(sums));
}

// Parallel count of indices i in [0, n) satisfying pred(i).
template <typename Pred>
size_t count_if_index(size_t n, Pred&& pred) {
  return reduce_index<size_t>(n, [&](size_t i) -> size_t { return pred(i) ? 1 : 0; });
}

}  // namespace parsemi
