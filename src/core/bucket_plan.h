// Phase 2 — bucket allocation (§4 Phase 2; steps 4, 5, 6a, 7a of Alg. 1).
//
// From the *sorted* sample this builds the complete routing structure:
//   * heavy keys (≥ δ sample hits) each get their own bucket and an entry
//     in a read-only two-choice table T: hashed key → bucket id (built
//     sequentially here, then only read, so a lookup needs no atomics and
//     no data-dependent branch);
//   * the hash space is partitioned into 2^16 equal ranges; adjacent ranges
//     are merged until each light bucket covers ≥ δ sample hits (the §4
//     estimation-accuracy optimization), and a 2^16-entry map range → light
//     bucket id is produced (small enough to stay cache-resident);
//   * every bucket gets α·f(s) slots (§3.1), laid out in one big array —
//     heavy buckets first, then light — so Phase 5 can pack by scanning.
//
// This phase costs ~1% of the total time (sample is n/16 keys), so the
// walk over distinct sample keys is deliberately sequential and simple,
// exactly as in the paper.
//
// Every table and array of the plan lives in the pipeline_context's arena:
// the plan is a view that stays valid until the caller's checkpoint (one
// Las-Vegas attempt) is rewound, and building it performs no heap
// allocation once the arena is warm.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "core/estimator.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "hashing/hash64.h"
#include "primitives/pack.h"
#include "scheduler/scheduler.h"

namespace parsemi {

// One slot of the heavy routing table: a heavy key and its bucket id + 1.
// An id field of 0 marks the slot empty, so a lookup that matches an empty
// slot's key (0) still reads "not heavy" — no key value is reserved.
struct heavy_slot {
  uint64_t key;
  uint64_t id_plus_one;
};

struct bucket_plan {
  // Heavy routing: a two-choice table, hashed key → heavy bucket id
  // (buckets 0..num_heavy). Key k lives in one of its two
  // heavy_candidates(k, heavy_seed, size) slots, so bucket_of reads both
  // and selects by mask. Empty when num_heavy == 0.
  std::span<heavy_slot> heavy_table;
  uint64_t heavy_seed = 0;
  size_t num_heavy = 0;

  // Light routing: key >> range_shift → range; range → light bucket id
  // (light bucket j occupies overall bucket slot num_heavy + j).
  std::span<uint32_t> range_to_light_bucket;
  int range_shift = 48;
  size_t num_light = 0;

  // bucket_offset[b] .. bucket_offset[b+1]) is bucket b's slot range in the
  // single backing array; heavy buckets come first.
  std::span<size_t> bucket_offset;
  size_t heavy_slots_end = 0;
  size_t total_slots = 0;

  size_t num_buckets() const { return num_heavy + num_light; }

  // Slot capacity of bucket b — every scatter path's overflow bound.
  size_t capacity_of(size_t b) const {
    return bucket_offset[b + 1] - bucket_offset[b];
  }

  // Key's two candidate slots in a table of `size` (≤ 2^32) slots: the two
  // 32-bit halves of a seeded murmur_mix64, each scaled to the size by a
  // multiply-shift, so the size need not be a power of two.
  static std::pair<size_t, size_t> heavy_candidates(uint64_t key,
                                                    uint64_t seed,
                                                    size_t size) {
    uint64_t h = murmur_mix64(key ^ seed);
    return {((h & 0xffffffffu) * size) >> 32, ((h >> 32) * size) >> 32};
  }

  // Size of the first table built for num_heavy keys: 44 % load, under the
  // two-choice table's 50 % threshold.
  static size_t heavy_table_size(size_t num_heavy) {
    return num_heavy * 9 / 4 + 2;
  }

  // Bucket id for a hashed key: the range map's light bucket unless one of
  // the key's two slots holds it. Two slot loads and mask selects, with no
  // branch on the key; a plan without heavy keys reads the range map only.
  size_t bucket_of(uint64_t key) const {
    size_t light = num_heavy + range_to_light_bucket[key >> range_shift];
    if (num_heavy == 0) return light;
    auto [i, j] = heavy_candidates(key, heavy_seed, heavy_table.size());
    const heavy_slot& a = heavy_table[i];
    const heavy_slot& b = heavy_table[j];
    uint64_t id = (a.id_plus_one & -static_cast<uint64_t>(a.key == key)) |
                  (b.id_plus_one & -static_cast<uint64_t>(b.key == key));
    uint64_t heavy = -static_cast<uint64_t>(id != 0);
    return ((id - 1) & heavy) | (light & ~heavy);
  }
};

namespace internal {

// Cuckoo insertion of {key, id + 1} into a two-choice table of `size`
// slots: a full slot hands its key on to that key's other slot. False when
// the displacement chain runs past kMaxKicks, leaving the table partly
// rewritten.
inline bool insert_heavy_slot(heavy_slot* slots, size_t size, uint64_t seed,
                              uint64_t key, uint64_t id) {
  constexpr size_t kMaxKicks = 64;
  heavy_slot cur{key, id + 1};
  size_t from = ~size_t{0};
  for (size_t kick = 0; kick <= kMaxKicks; ++kick) {
    auto [p1, p2] = bucket_plan::heavy_candidates(cur.key, seed, size);
    if (slots[p1].id_plus_one == 0) return slots[p1] = cur, true;
    if (slots[p2].id_plus_one == 0) return slots[p2] = cur, true;
    from = from == p1 ? p2 : p1;
    std::swap(cur, slots[from]);
  }
  return false;
}

}  // namespace internal

// Builds the plan from the sorted sample. `alpha` is passed explicitly so
// the Las-Vegas retry loop can inflate capacities after an overflow. All
// plan storage comes from ctx.scratch — the plan dangles once the caller's
// enclosing arena checkpoint is rewound.
inline bucket_plan build_bucket_plan(std::span<const uint64_t> sorted_sample,
                                     size_t n, const semisort_params& params,
                                     double alpha, pipeline_context& ctx) {
  bucket_plan plan;
  arena& scratch = ctx.scratch;
  size_t m = sorted_sample.size();

  size_t num_ranges = std::bit_ceil(std::max<size_t>(2, params.num_hash_ranges));
  plan.range_shift = 64 - std::countr_zero(num_ranges);
  plan.range_to_light_bucket =
      std::span<uint32_t>(scratch.alloc<uint32_t>(num_ranges), num_ranges);
  // No zero-fill: every range is written exactly once by close_group below.

  // Distinct-key boundaries in the sorted sample (parallel pack).
  std::span<size_t> starts = pack_index_arena(
      m, [&](size_t i) { return i == 0 || sorted_sample[i] != sorted_sample[i - 1]; },
      scratch);
  size_t num_distinct = starts.size();

  // Split distinct sample keys into heavy keys and per-range light counts.
  struct heavy_entry {
    uint64_t key;
    size_t count;
  };
  // ≤ m/δ keys can reach δ sample hits.
  size_t heavy_cap = m / std::max<size_t>(1, params.delta) + 1;
  std::span<heavy_entry> heavy_keys(scratch.alloc<heavy_entry>(heavy_cap),
                                    heavy_cap);
  std::span<size_t> range_sample_count(scratch.alloc<size_t>(num_ranges),
                                       num_ranges);
  parallel_for(0, num_ranges, [&](size_t r) { range_sample_count[r] = 0; });
  for (size_t j = 0; j < num_distinct; ++j) {
    uint64_t key = sorted_sample[starts[j]];
    size_t end = j + 1 < num_distinct ? starts[j + 1] : m;
    size_t count = end - starts[j];
    if (count >= params.delta) {
      heavy_keys[plan.num_heavy++] = {key, count};
    } else {
      range_sample_count[key >> plan.range_shift] += count;
    }
  }

  // Heavy buckets: one per heavy key, α·f(count) slots.
  // bucket_offset's worst case is one bucket per heavy key plus one light
  // bucket per range, plus the closing boundary.
  size_t offset_cap = plan.num_heavy + num_ranges + 1;
  size_t* offsets = scratch.alloc<size_t>(offset_cap);
  size_t num_offsets = 0;
  offsets[num_offsets++] = 0;
  for (size_t h = 0; h < plan.num_heavy; ++h) {
    size_t count = heavy_keys[h].count;
    offsets[num_offsets] =
        offsets[num_offsets - 1] + bucket_capacity(count, n, params, alpha);
    num_offsets++;
  }
  plan.heavy_slots_end = offsets[num_offsets - 1];

  // T, built sequentially under seed 0; a displacement chain that runs out
  // rebuilds it at double the size under the next seed.
  if (plan.num_heavy > 0) {
    size_t cap = bucket_plan::heavy_table_size(plan.num_heavy);
    for (uint64_t seed = 0;; seed += 0x9e3779b97f4a7c15ULL, cap *= 2) {
      arena::checkpoint before = scratch.mark();
      heavy_slot* slots = scratch.alloc<heavy_slot>(cap);
      std::fill(slots, slots + cap, heavy_slot{0, 0});
      size_t h = 0;
      while (h < plan.num_heavy &&
             internal::insert_heavy_slot(slots, cap, seed,
                                         heavy_keys[h].key, h))
        ++h;
      if (h == plan.num_heavy) {
        plan.heavy_table = std::span<heavy_slot>(slots, cap);
        plan.heavy_seed = seed;
        break;
      }
      scratch.rewind(before);
    }
  }

  // Light buckets: merge adjacent ranges until each bucket saw ≥ δ samples
  // (if enabled); a trailing under-full group is folded into its
  // predecessor so every bucket meets the threshold when possible.
  size_t merge_target = std::max(params.delta, params.light_bucket_samples);
  size_t group_count = 0;
  size_t group_first_range = 0;
  auto close_group = [&](size_t last_range_exclusive) {
    uint32_t id = static_cast<uint32_t>(plan.num_light);
    for (size_t r = group_first_range; r < last_range_exclusive; ++r)
      plan.range_to_light_bucket[r] = id;
    offsets[num_offsets] =
        offsets[num_offsets - 1] + bucket_capacity(group_count, n, params, alpha);
    num_offsets++;
    plan.num_light++;
    group_count = 0;
    group_first_range = last_range_exclusive;
  };
  for (size_t r = 0; r < num_ranges; ++r) {
    group_count += range_sample_count[r];
    bool last = (r + 1 == num_ranges);
    if (!params.merge_light_buckets || group_count >= merge_target) {
      if (!last) close_group(r + 1);
    }
    if (last) {
      if (plan.num_light > 0 && params.merge_light_buckets &&
          group_count < merge_target) {
        // Fold trailing remainder into the previous group: regrow its
        // capacity and remap its ranges.
        plan.num_light--;
        num_offsets--;
        // Recover the previous group's first range.
        size_t prev_first = group_first_range;
        while (prev_first > 0 &&
               plan.range_to_light_bucket[prev_first - 1] ==
                   static_cast<uint32_t>(plan.num_light))
          prev_first--;
        size_t prev_count = 0;
        // Previous group's sample count must be re-derived.
        for (size_t r2 = prev_first; r2 < group_first_range; ++r2)
          prev_count += range_sample_count[r2];
        group_count += prev_count;
        group_first_range = prev_first;
      }
      close_group(num_ranges);
    }
  }
  plan.bucket_offset = std::span<size_t>(offsets, num_offsets);
  plan.total_slots = plan.bucket_offset.back();
  return plan;
}

}  // namespace parsemi
