// Phase 1 — sample and sort (§4 Phase 1).
//
// The paper replaces independent Bernoulli(p) sampling with strided
// sampling: the i-th sample is drawn uniformly from the i-th stride of
// ~1/p consecutive records. Per key the expected number of samples matches
// the Bernoulli scheme, the sample size is exactly ⌊n·p⌋ (no variance), and
// the memory access pattern is sequential-ish.
//
// The arena-backed entry points below (span results, scratch from a
// pipeline_context) are what the pipeline runs; the vector-returning form
// is kept as a standalone convenience for tests and ablations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/pipeline_context.h"
#include "primitives/counting_sort.h"
#include "scheduler/scheduler.h"
#include "util/rng.h"

namespace parsemi {

// Samples ⌊n·p⌋ hashed keys into ctx.scratch; the span lives until the
// caller's arena checkpoint is rewound.
template <typename Record, typename GetKey>
std::span<uint64_t> sample_keys(std::span<const Record> in, GetKey get_key,
                                double sampling_p, rng base,
                                pipeline_context& ctx) {
  size_t n = in.size();
  auto num_samples = static_cast<size_t>(static_cast<double>(n) * sampling_p);
  std::span<uint64_t> sample(ctx.scratch.alloc<uint64_t>(num_samples),
                             num_samples);
  // Batched draw: 4 positions per round through the interleaved splitmix
  // mixer (rng::ith_batch — bit-identical to 4 ith_below calls), so the
  // mixer's multiply latency overlaps the strided sample loads. Stride
  // boundaries are chosen so the strides exactly tile [0, n).
  parallel_for_blocks(num_samples, size_t{512},
                      [&](size_t, size_t blo, size_t bhi) {
    uint64_t draws[4];
    size_t i = blo;
    for (; i + 4 <= bhi; i += 4) {
      base.ith_batch(i, draws);
      for (size_t k = 0; k < 4; ++k) {
        size_t lo = ((i + k) * n) / num_samples;
        size_t hi = ((i + k + 1) * n) / num_samples;
        size_t pos = lo + static_cast<size_t>(
            (static_cast<unsigned __int128>(draws[k]) * (hi - lo)) >> 64);
        sample[i + k] = get_key(in[pos]);
      }
    }
    for (; i < bhi; ++i) {
      size_t lo = (i * n) / num_samples;
      size_t hi = ((i + 1) * n) / num_samples;
      sample[i] = get_key(in[lo + base.ith_below(i, hi - lo)]);
    }
  });
  return sample;
}

// Standalone convenience: same sampling into a fresh vector.
template <typename Record, typename GetKey>
std::vector<uint64_t> sample_keys(std::span<const Record> in, GetKey get_key,
                                  double sampling_p, rng base) {
  pipeline_context ctx;
  std::span<uint64_t> s = sample_keys(in, get_key, sampling_p, base, ctx);
  return std::vector<uint64_t>(s.begin(), s.end());
}

namespace internal {

// Allocation-free sorter for the (pre-hashed, hence near-uniform) sample:
// one MSD distribution pass on the top 8 bits into arena scratch (the
// library's distribute_stable kernel, primitives/counting_sort.h), then an
// independent std::sort per 1/256th of the key space. Small samples skip
// straight to std::sort. Replaces radix_sort_u64 in the pipeline, whose
// recursive tmp/starts vectors would break the steady-state
// zero-allocation contract.
inline void radix_sort_sample(std::span<uint64_t> a, arena& scratch) {
  size_t m = a.size();
  constexpr size_t kSeqThreshold = size_t{1} << 13;
  if (m <= kSeqThreshold || num_workers() == 1) {
    std::sort(a.begin(), a.end());
    return;
  }
  arena_scope scope(scratch);
  constexpr size_t kBuckets = 256;
  constexpr int kShift = 56;
  uint64_t* src = a.data();
  uint64_t* tmp = scratch.alloc<uint64_t>(m);
  std::span<const size_t> start = distribute_stable(
      m, kBuckets,
      [src](size_t i) { return static_cast<size_t>(src[i] >> kShift); },
      [src, tmp](size_t i, size_t pos) { tmp[pos] = src[i]; }, scratch);
  parallel_for(
      0, kBuckets,
      [src, tmp, start](size_t q) {
        std::sort(tmp + start[q], tmp + start[q + 1]);
        std::copy(tmp + start[q], tmp + start[q + 1], src + start[q]);
      },
      1);
}

}  // namespace internal

}  // namespace parsemi
