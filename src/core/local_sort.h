// Phase 4 — local sort of the light buckets (§4 Phase 4; step 7c of Alg. 1).
//
// Buckets are processed in parallel but each bucket sequentially: w.h.p. a
// light bucket holds O(log²n) records over O(log²n) distinct keys, so the
// per-bucket work is tiny, cache-resident, and there are far more buckets
// than workers. Two drivers share one per-bucket entry point (sort_bucket):
//   * local_sort_exact_buckets — the general path. The exact-count scatter
//     laid every bucket out contiguously, so each light bucket is sorted in
//     place on its own range of the destination.
//   * local_sort_light_buckets — the CAS reference path. Each light bucket
//     is first compacted in place by a two-pointer sweep (occupied slots
//     move to the bucket's start, preserving order), then sorted.
//
// Two per-bucket algorithms:
//   * std_sort — the paper's final choice (§4): sort by hashed key.
//   * counting_by_naming — the §3 theoretical path: assign dense labels to
//     the bucket's distinct keys with a small hash table (the *naming
//     problem*), then one stable counting sort by label. Groups come out
//     contiguous but NOT ordered by hash value — a useful property test
//     that callers only rely on the semisort contract.
// std_sort runs one kernel: every bucket of 2 to kMsdStackMax trivially
// copyable records of at most 32 bytes takes a stable MSD radix sort over
// the hashed key (radix_bucket_sort). A merged light bucket spans a few
// adjacent hash ranges, so its keys share their top bits; the kernel
// therefore splits on the bits the keys actually differ in:
//   1. one scan ORs key ^ key0 over the range — an all-equal range is done;
//   2. one stable counting pass sorts by the w = min(12, bit_width(b) + 1)
//      bits from the highest set bit of that OR down, b the range's size;
//   3. every digit group of more than 16 records recurses into the kernel;
//   4. one insertion pass over the whole bucket finishes the small groups.
// The output equals std::stable_sort by key. Each level moves O(b)
// records, and a level that recurses holds more than 16 records, so it
// consumes at least 6 key bits: at most 11 levels. The scratch is stack
// only — one 16 KiB digit table per level plus one record buffer of
// kMsdStackMax records, at most 11 · 16 + 128 = 304 KiB — so the kernel
// never touches the heap or an arena. Bigger buckets and other records
// keep std::sort, the reference.
#pragma once

#include <algorithm>
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

// The radix kernel copies records into raw stack storage, so it applies
// only to small trivially-copyable records (32 bytes covers every
// engine-internal layout; bigger ones keep std::sort).
template <typename Record>
inline constexpr bool radix_sortable =
    std::is_trivially_copyable_v<Record> && sizeof(Record) <= 32;

// The kernel sorts off stack scratch only, never the thread-local arena.
// This keeps the warm path heap-silent unconditionally: with work
// stealing, a measured run can land a bucket on a worker whose arena was
// never touched during warmup, and that first-block allocation would break
// the zero-warm-allocation contract (alloc_regression_test). On uniform
// keys the largest merged light bucket holds 1,887 records at n = 10^5 and
// 2,414 at n = 10^7, so the cap clears the realistic range; a bucket that
// still exceeds it keeps std::sort.
inline constexpr size_t kMsdStackMax = 4096;
inline constexpr int kRadixDigitBits = 12;
inline constexpr size_t kInsertionMax = 16;

// OR of key ^ key0 over recs[0, n): zero iff every key is equal, otherwise
// its highest set bit is the highest bit the keys differ in.
template <typename Record, typename GetKey>
uint64_t key_spread(const Record* recs, size_t n, GetKey& get_key) {
  const uint64_t key0 = get_key(recs[0]);
  uint64_t spread = 0;
  for (size_t i = 1; i < n; ++i) spread |= get_key(recs[i]) ^ key0;
  return spread;
}

// One stable counting pass over recs[0, n) (spread = key_spread(...) != 0)
// on the w bits from the spread's highest bit down, through tmp[0, n) and
// back; digit groups of more than kInsertionMax records recurse, smaller
// ones are left for insertion_pass.
template <typename Record, typename GetKey>
void radix_level(Record* recs, Record* tmp, size_t n, uint64_t spread,
                 GetKey& get_key) {
  const int top = static_cast<int>(std::bit_width(spread));
  const int w = std::min({kRadixDigitBits,
                          static_cast<int>(std::bit_width(n)) + 1, top});
  const int shift = top - w;
  const uint64_t mask = (uint64_t{1} << w) - 1;
  const size_t digits = size_t{1} << w;
  uint32_t pos[size_t{1} << kRadixDigitBits];
  std::fill_n(pos, digits, 0u);
  for (size_t i = 0; i < n; ++i) ++pos[(get_key(recs[i]) >> shift) & mask];
  uint32_t run = 0, largest = 0;
  for (size_t d = 0; d < digits; ++d) {
    const uint32_t c = pos[d];
    largest = std::max(largest, c);
    pos[d] = run;
    run += c;
  }
  for (size_t i = 0; i < n; ++i) {
    tmp[pos[(get_key(recs[i]) >> shift) & mask]++] = recs[i];
  }
  simd::copy_records(recs, tmp, n);
  if (largest <= kInsertionMax) return;
  // pos[d] is now the end of digit d's group.
  uint32_t begin = 0;
  for (size_t d = 0; d < digits; ++d) {
    const uint32_t len = pos[d] - begin;
    if (len > kInsertionMax) {
      if (uint64_t s = key_spread(recs + begin, len, get_key)) {
        radix_level(recs + begin, tmp + begin, len, s, get_key);
      }
    }
    begin = pos[d];
  }
}

// Stable insertion sort. After radix_level every record is in order
// relative to every other group, so records move only within their own
// group of at most kInsertionMax.
template <typename Record, typename GetKey>
void insertion_pass(Record* recs, size_t n, GetKey& get_key) {
  uint64_t prev = get_key(recs[0]);
  for (size_t i = 1; i < n; ++i) {
    const uint64_t key = get_key(recs[i]);
    if (key >= prev) {
      prev = key;
      continue;
    }
    const Record r = recs[i];
    size_t j = i;
    do {
      recs[j] = recs[j - 1];
      --j;
    } while (j > 0 && get_key(recs[j - 1]) > key);
    recs[j] = r;
  }
}

// The kernel's entry point: sorts one bucket of 2 to kMsdStackMax records
// stably by key.
template <typename Record, typename GetKey>
void radix_bucket_sort(std::span<Record> bucket, GetKey& get_key) {
  const size_t n = bucket.size();
  const uint64_t spread = key_spread(bucket.data(), n, get_key);
  if (spread == 0) return;
  // Raw storage is fine: radix_sortable gates this path to
  // trivially-copyable records.
  alignas(Record) std::byte tmp_raw[kMsdStackMax * sizeof(Record)];
  radix_level(bucket.data(), reinterpret_cast<Record*>(tmp_raw), n, spread,
              get_key);
  insertion_pass(bucket.data(), n, get_key);
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

// Semisorts one light bucket in place with the configured algorithm.
template <typename Record, typename GetKey>
void sort_bucket(std::span<Record> bucket, GetKey& get_key,
                 const semisort_params& params) {
  if (params.local_sort ==
      semisort_params::local_sort_algo::counting_by_naming) {
    counting_sort_by_naming(bucket, get_key);
    return;
  }
  const size_t count = bucket.size();
  if (count < 2) return;
  if constexpr (radix_sortable<Record>) {
    if (count <= kMsdStackMax) {
      radix_bucket_sort(bucket, get_key);
      return;
    }
  }
  std::sort(bucket.begin(), bucket.end(),
            [&](const Record& a, const Record& b) {
              return get_key(a) < get_key(b);
            });
}

}  // namespace internal

// Semisorts every light bucket of an exact layout in place: light bucket j
// is dest[light_start[j], light_start[j + 1]) (the tail of the layout
// core/scatter.h's scatter_exact returns, from the first light bucket on).
// Heavy buckets hold one key each and are already grouped.
template <typename Record, typename GetKey>
void local_sort_exact_buckets(std::span<Record> dest,
                              std::span<const size_t> light_start,
                              GetKey get_key, const semisort_params& params) {
  parallel_for(
      0, light_start.size() - 1,
      [&](size_t j) {
        size_t lo = light_start[j];
        internal::sort_bucket(dest.subspan(lo, light_start[j + 1] - lo),
                              get_key, params);
      },
      1);
}

// CAS path: compacts and semisorts every light bucket; light_counts[j] (a
// span of plan.num_light elements, typically arena-allocated by the
// attempt loop) receives the number of records in light bucket j after
// compaction.
template <typename Record, typename GetKey>
void local_sort_light_buckets(scatter_storage<Record>& storage,
                              const bucket_plan& plan, GetKey get_key,
                              const semisort_params& params,
                              std::span<size_t> light_counts) {
  parallel_for(
      0, plan.num_light,
      [&](size_t j) {
        size_t lo = plan.bucket_offset[plan.num_heavy + j];
        size_t hi = plan.bucket_offset[plan.num_heavy + j + 1];
        size_t w = lo;
        // Order-preserving two-pointer sweep.
        for (size_t r = lo; r < hi; ++r) {
          if (storage.occupied(r)) {
            if (w != r) storage.slots[w] = storage.slots[r];
            ++w;
          }
        }
        light_counts[j] = w - lo;
        internal::sort_bucket(
            std::span<Record>(storage.slots.data() + lo, w - lo), get_key,
            params);
      },
      1);
}

}  // namespace parsemi
