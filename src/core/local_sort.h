// Phase 4 — local sort of the light buckets (§4 Phase 4; step 7c of Alg. 1).
//
// Each light bucket is first compacted in place (occupied slots move to the
// bucket's start, preserving order) and then semisorted. Buckets are
// processed in parallel but each bucket sequentially: w.h.p. a light bucket
// holds O(log²n) records over O(log²n) distinct keys, so the per-bucket
// work is tiny, cache-resident, and there are far more buckets than
// workers.
//
// Two per-bucket algorithms:
//   * std_sort — the paper's final choice (§4): introsort by hashed key.
//   * counting_by_naming — the §3 theoretical path: assign dense labels to
//     the bucket's distinct keys with a small hash table (the *naming
//     problem*), then one stable counting sort by label. Groups come out
//     contiguous but NOT ordered by hash value — a useful property test
//     that callers only rely on the semisort contract.
// When the accelerated tier is on (util/simd.h) the std_sort route is
// further specialized by bucket size: ≤ 16 records run a Batcher odd–even
// merge sorting network (a fixed compare-exchange schedule with branchless
// cswaps — nothing for the branch predictor to mispredict), kMsdMinBucket
// to kMsdStackMax records take an MSD byte-pass radix over the hashed key
// whose groups are finished by those same networks, and every other size
// keeps introsort.
// Compaction is accelerated too: bucket occupancy lives in the slots' key
// words, so the leading dense run is measured 4 slots per step
// (simd::occupied_prefix_len), which turns compaction into a no-op for the
// front-to-back-filling scatter paths. Everything falls back to the
// std_sort + two-pointer-sweep reference shapes for non-trivially-copyable
// records and under PARSEMI_SIMD=OFF.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "core/arena.h"
#include "core/bucket_plan.h"
#include "core/params.h"
#include "core/scatter.h"
#include "hashing/hash64.h"
#include "scheduler/scheduler.h"
#include "util/simd.h"

namespace parsemi {

namespace internal {

// Batcher odd–even merge sorting networks for every size 2..16, generated
// at compile time (the iterative form works for arbitrary n, not only
// powers of two; n = 16 needs 63 compare-exchanges, smaller n fewer).
inline constexpr size_t kNetworkMax = 16;

struct sorting_networks {
  struct ce {
    uint8_t a = 0, b = 0;  // compare-exchange pair, a < b
  };
  std::array<std::array<ce, 63>, kNetworkMax + 1> net{};
  std::array<uint8_t, kNetworkMax + 1> len{};
};

constexpr sorting_networks make_sorting_networks() {
  sorting_networks s{};
  for (size_t n = 2; n <= kNetworkMax; ++n) {
    size_t c = 0;
    for (size_t p = 1; p < n; p <<= 1) {
      for (size_t k = p; k >= 1; k >>= 1) {
        for (size_t j = k % p; j + k <= n - 1; j += 2 * k) {
          for (size_t i = 0; i < k && i + j + k <= n - 1; ++i) {
            if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
              s.net[n][c++] = {static_cast<uint8_t>(i + j),
                               static_cast<uint8_t>(i + j + k)};
            }
          }
        }
      }
    }
    s.len[n] = static_cast<uint8_t>(c);
  }
  return s;
}

inline constexpr sorting_networks kSortingNetworks = make_sorting_networks();

// The network operates on (cached key, record) pairs so get_key runs once
// per record; copies of the record ride through the branchless cswap, so it
// only applies to small trivially-copyable records (32 bytes covers every
// engine-internal layout; bigger ones introsort as before).
template <typename Record>
inline constexpr bool network_sortable =
    std::is_trivially_copyable_v<Record> && sizeof(Record) <= 32;

// Network on (cached key, record) pairs the caller has already extracted —
// the MSD byte sort below finishes its small groups this way without
// re-running get_key.
template <typename Record>
void network_sort_cached(uint64_t* keys, Record* recs, size_t n) {
  const auto& net = kSortingNetworks.net[n];
  const size_t len = kSortingNetworks.len[n];
  for (size_t e = 0; e < len; ++e) {
    simd::cswap(keys[net[e].a], keys[net[e].b], recs[net[e].a],
                recs[net[e].b]);
  }
}

template <typename Record, typename GetKey>
void network_sort(Record* rec, size_t n, GetKey& get_key) {
  uint64_t keys[kNetworkMax];
  for (size_t i = 0; i < n; ++i) keys[i] = get_key(rec[i]);
  network_sort_cached(keys, rec, n);
}

// Buckets larger than the network cutoff take an MSD byte-pass radix sort
// when the accelerated tier is on: hashed keys are uniform, so one
// counting pass over the top byte splits a Θ(log²n)-record bucket into
// ~256 groups of a handful of records each, finished by the sorting
// networks (≤ 16) or one more byte level. The passes are branch-free
// (count, prefix, place — no comparisons), so this replaces introsort's
// ~n·log n mispredicting compares with ~3 linear sweeps + tiny networks.
// Output is ascending by hashed key — the same order std_sort produces.
inline constexpr size_t kMsdMinBucket = 96;

template <typename Record>
void msd_byte_sort(uint64_t* keys, Record* recs, size_t n, int shift,
                   uint64_t* ktmp, Record* rtmp) {
  // Duplicate-heavy buckets routinely hold all-equal groups larger than
  // the network cutoff. They are already grouped — and without this check
  // such a group would re-pass through every remaining byte level (8
  // full count/place sweeps for zero information). Mixed groups exit the
  // scan at the first mismatch, so the check is ~1 compare when it fails.
  size_t eq = 1;
  while (eq < n && keys[eq] == keys[0]) ++eq;
  if (eq == n) return;
  uint32_t cnt[256];
  std::fill(cnt, cnt + 256, 0u);
  for (size_t i = 0; i < n; ++i) cnt[(keys[i] >> shift) & 255]++;
  uint32_t ofs[256];
  uint32_t run = 0;
  for (size_t b = 0; b < 256; ++b) {
    ofs[b] = run;
    run += cnt[b];
  }
  for (size_t i = 0; i < n; ++i) {
    uint32_t p = ofs[(keys[i] >> shift) & 255]++;
    ktmp[p] = keys[i];
    rtmp[p] = recs[i];
  }
  std::memcpy(keys, ktmp, n * sizeof(uint64_t));
  simd::copy_records(recs, rtmp, n);
  size_t start = 0;
  for (size_t b = 0; b < 256; ++b) {
    size_t len = cnt[b];
    if (len > 1) {
      if (len <= kNetworkMax) {
        network_sort_cached(keys + start, recs + start, len);
      } else if (shift > 0) {
        msd_byte_sort(keys + start, recs + start, len, shift - 8,
                      ktmp + start, rtmp + start);
      }
      // shift == 0 with len > kNetworkMax: all 8 key bytes are consumed,
      // so the group's keys are identical — already grouped.
    }
    start += len;
  }
}

// Per-worker scratch for the naming sort. The shared pipeline arena is not thread-safe and this runs inside a
// per-bucket parallel_for, so each worker bumps its own arena (retained
// for the thread's lifetime — steady state allocates nothing). Page
// priming is off: buckets are O(log²n) records, far below the priming
// threshold, and the owning thread is the only toucher anyway.
inline arena& bucket_scratch() {
  static thread_local arena a(/*prime_pages=*/false);
  return a;
}

// The MSD route sorts off stack scratch only (128 KiB for 16-byte
// records at the 4096 cap, well inside a worker's default 8 MiB stack) —
// never the thread-local arena. This keeps the warm path heap-silent
// unconditionally: with work stealing, a measured run can land a bucket
// on a worker whose arena was never touched during warmup, and that
// first-block allocation would break the zero-warm-allocation contract
// (alloc_regression_test). Merged light buckets measure ~2000 records at
// n = 10^5 and ~2900 at n = 10^7 and grow roughly logarithmically, so
// the cap clears the realistic range; a bucket that still exceeds it
// keeps introsort.
inline constexpr size_t kMsdStackMax = 4096;

// MSD entry point for one bucket (n ≤ kMsdStackMax, enforced by the
// dispatch below): caches keys once, then byte passes.
template <typename Record, typename GetKey>
void msd_bucket_sort(std::span<Record> bucket, GetKey& get_key) {
  size_t n = bucket.size();
  uint64_t keys[kMsdStackMax];
  uint64_t ktmp[kMsdStackMax];
  // Raw storage is fine: network_sortable gates this path to
  // trivially-copyable records.
  alignas(Record) std::byte rtmp_raw[kMsdStackMax * sizeof(Record)];
  Record* rtmp = reinterpret_cast<Record*>(rtmp_raw);
  for (size_t i = 0; i < n; ++i) keys[i] = get_key(bucket[i]);
  msd_byte_sort(keys, bucket.data(), n, 56, ktmp, rtmp);
}

// Sequential naming + counting sort for one small bucket.
template <typename Record, typename GetKey>
void counting_sort_by_naming(std::span<Record> bucket, GetKey& get_key) {
  size_t n = bucket.size();
  if (n <= 1) return;
  arena& scratch = bucket_scratch();
  arena_scope scope(scratch);
  size_t cap = std::bit_ceil(2 * n);
  size_t mask = cap - 1;
  constexpr uint32_t kNoLabel = ~0u;
  // Open-addressing naming table: key → dense label in first-seen order.
  uint64_t* table_key = scratch.alloc<uint64_t>(cap);
  uint32_t* table_label = scratch.alloc<uint32_t>(cap);
  uint32_t* labels = scratch.alloc<uint32_t>(n);
  std::fill(table_label, table_label + cap, kNoLabel);
  uint32_t next_label = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = get_key(bucket[i]);
    size_t slot = murmur_mix64(key) & mask;
    for (;;) {
      if (table_label[slot] == kNoLabel) {
        table_key[slot] = key;
        table_label[slot] = next_label++;
        break;
      }
      if (table_key[slot] == key) break;
      slot = (slot + 1) & mask;
    }
    labels[i] = table_label[slot];
  }
  // Stable counting sort by label.
  size_t* counts = scratch.alloc<size_t>(next_label + 1);
  std::fill(counts, counts + next_label + 1, size_t{0});
  for (size_t i = 0; i < n; ++i) counts[labels[i] + 1]++;
  for (size_t l = 1; l <= next_label; ++l) counts[l] += counts[l - 1];
  Record* tmp = scratch.alloc<Record>(n);
  for (size_t i = 0; i < n; ++i) tmp[counts[labels[i]]++] = bucket[i];
  std::copy(tmp, tmp + n, bucket.begin());
}

}  // namespace internal

// Compacts and semisorts every light bucket; light_counts[j] (a span of
// plan.num_light elements, typically arena-allocated by the attempt loop)
// receives the number of records in light bucket j after compaction.
// `kernel_used` (optional) is set when at least one bucket engaged an
// accelerated kernel (prefix-scan compaction, sorting network, or the MSD
// byte sort) — it feeds semisort_stats::simd_local_sort_width.
// `dense_storage` promises that every bucket's occupied slots form a
// prefix (the blocked scatter path fills buckets front-to-back);
// compaction then reduces to measuring that prefix.
template <typename Record, typename GetKey>
void local_sort_light_buckets(scatter_storage<Record>& storage,
                              const bucket_plan& plan, GetKey get_key,
                              const semisort_params& params,
                              std::span<size_t> light_counts,
                              std::atomic<bool>* kernel_used = nullptr,
                              bool dense_storage = false) {
  parallel_for(
      0, plan.num_light,
      [&](size_t j) {
        size_t lo = plan.bucket_offset[plan.num_heavy + j];
        size_t hi = plan.bucket_offset[plan.num_heavy + j + 1];
        size_t w = lo;
        bool engaged = false;
        if constexpr (std::is_trivially_copyable_v<Record> &&
                      scatter_storage<Record>::kKeyCas && simd::kEnabled) {
          // Occupancy lives in the slots' key words (sentinel = hole), so
          // the leading dense run is measured by the match_key4 lane
          // extraction — 4 slots per step instead of a per-slot branch.
          size_t d = simd::occupied_prefix_len<sizeof(Record)>(
              storage.slots.data() + lo, hi - lo, storage.sentinel);
          w = lo + d;
          engaged = true;
          if (!dense_storage) {
            // CAS path: holes interleave. From the first hole on, compact
            // branchlessly — copy unconditionally, advance the write index
            // by the occupancy bit, so the scan never mispredicts. Safe:
            // w ≤ r throughout, and slots between the compacted prefix and
            // `hi` are never read again (pack copies only the prefix).
            // Trivially-copyable only: unoccupied slots hold uninitialized
            // payload bytes, which a raw copy may move but a user-defined
            // assignment must not see.
            for (size_t r = w; r < hi; ++r) {
              storage.slots[w] = storage.slots[r];
              w += storage.occupied(r) ? 1 : 0;
            }
          }
        } else {
          if (dense_storage) {
            while (w < hi && storage.occupied(w)) ++w;
          } else {
            // Order-preserving two-pointer sweep.
            for (size_t r = lo; r < hi; ++r) {
              if (storage.occupied(r)) {
                if (w != r) storage.slots[w] = storage.slots[r];
                ++w;
              }
            }
          }
        }
        light_counts[j] = w - lo;
        size_t count = w - lo;
        std::span<Record> bucket(storage.slots.data() + lo, count);
        if (params.local_sort ==
            semisort_params::local_sort_algo::counting_by_naming) {
          internal::counting_sort_by_naming(bucket, get_key);
        } else if constexpr (internal::network_sortable<Record> &&
                             simd::kEnabled) {
          if (count > 1 && count <= internal::kNetworkMax) {
            internal::network_sort(bucket.data(), count, get_key);
            engaged = true;
          } else if (count >= internal::kMsdMinBucket &&
                     count <= internal::kMsdStackMax) {
            internal::msd_bucket_sort(bucket, get_key);
            engaged = true;
          } else if (count > 1) {
            std::sort(bucket.begin(), bucket.end(),
                      [&](const Record& a, const Record& b) {
                        return get_key(a) < get_key(b);
                      });
          }
        } else {
          std::sort(bucket.begin(), bucket.end(),
                    [&](const Record& a, const Record& b) {
                      return get_key(a) < get_key(b);
                    });
        }
        if (engaged && kernel_used != nullptr &&
            !kernel_used->load(std::memory_order_relaxed)) {
          // Relaxed flag, set at most a handful of times: it only answers
          // "did any bucket engage", read after the join.
          kernel_used->store(true, std::memory_order_relaxed);
        }
      },
      1);
}

}  // namespace parsemi
