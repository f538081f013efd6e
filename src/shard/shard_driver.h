// shard_driver — out-of-core execution of a sharded semisort_plan.
// Included at the bottom of core/semisort.h (the same arrangement as
// core/tag_semisort.h); core/executor.h forward-declares
// execute_sharded_plan and core/semisort.h routes here when the planner
// came back with a multi-shard plan.
//
// Structure of a sharded call (the plan is made before the driver runs —
// shard/shard_plan.h groups hash-prefix bins into shards whose estimated
// input + engine scratch fits the budget):
//   1. partition — one stable blocked counting pass (the same
//                histogram / strided-scan / placement idiom as the blocked
//                scatter and the dispatch fast path) moves every record to
//                its shard's contiguous range. The destination is the
//                caller's `out` storage when it is distinct from `in`;
//                when the call is in-place the partition writes an
//                mmap-backed spill run (spill_file.h) instead — the kernel
//                pages it to disk under pressure, which is what keeps the
//                resident set near the budget.
//   2. execute — each shard runs the unchanged in-memory engine through the
//                existing worker_pool, with one reused pipeline_context so
//                shards after the first perform zero heap allocations.
//   3. concat  — nothing to do: shards are contiguous prefix ranges placed
//                back-to-back in `out`, so the concatenation is implicit
//                and every key's group is globally contiguous.
//
// Spill reads are serial: before computing shard k the driver issues an
// async WILLNEED hint for shard k+1's run, so kernel readahead proceeds
// while the pool semisorts shard k, and each consumed run is dropped
// (DONTNEED) so it stops competing with the budgeted working set.
//
// The budget is enforced w.h.p., not absolutely: the plan packs shards from
// a sampled histogram with headroom, and a single dominant hash prefix
// (ultimately a single heavy key) cannot be split without breaking group
// contiguity — such a shard runs over budget and the real footprint is
// reported via stats.shard_peak_scratch_bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/exec_plan.h"
#include "core/executor.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "primitives/histogram.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"
#include "shard/shard_plan.h"
#include "shard/spill_file.h"
#include "util/simd.h"

namespace parsemi {
namespace internal {

// Folds one shard's engine counters into the call-level aggregate: counts
// sum, histogram bins sum, probe/scratch maxima take the max, and the
// path-choice fields report the last shard that ran (shards see the same
// distribution family, so they almost always agree).
inline void accumulate_shard_stats(semisort_stats& agg,
                                   const semisort_stats& s) {
  agg.sample_size += s.sample_size;
  agg.num_heavy_keys += s.num_heavy_keys;
  agg.num_light_buckets += s.num_light_buckets;
  agg.heavy_records += s.heavy_records;
  agg.total_slots += s.total_slots;
  agg.heavy_slots += s.heavy_slots;
  agg.restarts += s.restarts;
  agg.arena_allocs += s.arena_allocs;
  agg.sequential_fallbacks += s.sequential_fallbacks;
  agg.job_steals += s.job_steals;
  agg.job_queue_wait_ns += s.job_queue_wait_ns;
  for (size_t b = 0; b < semisort_stats::kProbeBins; ++b)
    agg.probe_hist[b] += s.probe_hist[b];
  agg.max_probe = std::max(agg.max_probe, s.max_probe);
  agg.shard_peak_scratch_bytes =
      std::max(agg.shard_peak_scratch_bytes, s.peak_scratch_bytes);
  agg.scatter_path_used = s.scatter_path_used;
  agg.dispatch_path_used = s.dispatch_path_used;
  agg.key_domain_width = s.key_domain_width;
  agg.counting_passes = s.counting_passes;
  // Per-phase SIMD engagement: max — "widest kernel any shard ran".
  agg.simd_hash_width = std::max(agg.simd_hash_width, s.simd_hash_width);
  agg.simd_scatter_width =
      std::max(agg.simd_scatter_width, s.simd_scatter_width);
  agg.simd_local_sort_width =
      std::max(agg.simd_local_sort_width, s.simd_local_sort_width);
  agg.simd_pack_width = std::max(agg.simd_pack_width, s.simd_pack_width);
}

template <typename Record, typename GetKey>
void execute_sharded_plan(std::span<const Record> in, std::span<Record> out,
                          GetKey get_key, const semisort_params& params,
                          const semisort_plan& plan, bool aliased,
                          const char* who) {
  (void)who;
  const size_t n = in.size();
  constexpr size_t kRecordBytes = sizeof(Record);
  const shard_plan& sp = plan.shards;
  const size_t S = sp.num_shards;

  // Per-shard engine configuration: never recurse into sharding, plan each
  // shard fresh (the shard IS that call's input), and own the telemetry so
  // the driver can aggregate it.
  semisort_params inner = params;
  inner.memory_budget_bytes = SIZE_MAX;
  inner.timings = nullptr;
  inner.context = nullptr;
  inner.plan = nullptr;

  run_with_pool_override(params, [&] {
    phase_timer* pt = params.timings;
    if (pt != nullptr) pt->start();
    if (params.stats != nullptr) {
      *params.stats = {};
      publish_plan(params.stats, plan, /*reused=*/params.plan != nullptr);
    }

    // Partition destination: reuse `out` when it is separate storage; spill
    // to an mmap-backed run when the call is in-place.
    spill_file spill;
    std::span<Record> part;
    if (aliased) {
      spill = spill_file(n * kRecordBytes);
      spill.advise_sequential();
      part = spill.as_span<Record>().first(n);
    } else {
      part = out;
    }
    if (pt != nullptr) pt->record("shard plan");

    // Stable blocked partition by shard id (exact counts, zero atomics —
    // the dispatch fast path's counting_place_stable shape, inlined here
    // because the driver also needs the per-shard totals for the ranges).
    pipeline_context drv_ctx;
    std::vector<size_t> shard_begin(S + 1, 0);
    {
      arena_scope scope(drv_ctx.scratch);
      auto shard_at = [&](size_t i) {
        return sp.shard_of_key(get_key(in[i]));
      };
      size_t block = histogram_block_size(n, S);
      size_t num_blocks = histogram_num_blocks(n, block);
      size_t* counts = drv_ctx.scratch.alloc<size_t>(num_blocks * S);
      histogram_blocks(n, block, S, counts, shard_at);
      std::vector<size_t> totals(S, 0);
      parallel_for(0, S, [&](size_t k) {
        size_t sum = 0;
        for (size_t b = 0; b < num_blocks; ++b) sum += counts[b * S + k];
        totals[k] = sum;
      });
      for (size_t k = 0; k < S; ++k)
        shard_begin[k + 1] = shard_begin[k] + totals[k];
      parallel_for(0, S, [&](size_t k) {
        scan_exclusive_strided(counts + k, num_blocks, S, shard_begin[k]);
      });
      parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
        size_t* cursor = counts + b * S;
        if constexpr (simd::kEnabled) {
          // Shard ids are independent (hash prefix of the key) — compute 4
          // per round so their chains overlap; the dependent cursor bumps
          // then retire back-to-back.
          size_t i = lo;
          for (; i + 4 <= hi; i += 4) {
            size_t s0 = shard_at(i), s1 = shard_at(i + 1), s2 = shard_at(i + 2),
                   s3 = shard_at(i + 3);
            part[cursor[s0]++] = in[i];
            part[cursor[s1]++] = in[i + 1];
            part[cursor[s2]++] = in[i + 2];
            part[cursor[s3]++] = in[i + 3];
          }
          for (; i < hi; ++i) part[cursor[shard_at(i)]++] = in[i];
        } else {
          for (size_t i = lo; i < hi; ++i) part[cursor[shard_at(i)]++] = in[i];
        }
      });
    }
    if (pt != nullptr) pt->record("partition");

    // Execute the in-memory engine shard by shard. One reused context: the
    // first shard warms the arena, the rest run allocation-free.
    pipeline_context shard_ctx;
    inner.context = &shard_ctx;
    semisort_stats shard_stats;
    inner.stats = params.stats != nullptr ? &shard_stats : nullptr;
    semisort_stats agg{};
    for (size_t s = 0; s < S; ++s) {
      size_t lo = shard_begin[s], hi = shard_begin[s + 1];
      if (aliased && s + 1 < S) {
        // Start readahead of the next run while this shard computes.
        spill.advise_willneed(hi * kRecordBytes,
                              (shard_begin[s + 2] - hi) * kRecordBytes);
      }
      if (hi != lo) {
        shard_stats = {};
        std::span<Record> dst = out.subspan(lo, hi - lo);
        if (aliased) {
          semisort_hashed(std::span<const Record>(part.subspan(lo, hi - lo)),
                          dst, get_key, inner);
          spill.advise_dontneed(lo * kRecordBytes, (hi - lo) * kRecordBytes);
        } else {
          semisort_hashed_inplace(dst, get_key, inner);
        }
        if (inner.stats != nullptr) accumulate_shard_stats(agg, shard_stats);
      }
    }
    if (pt != nullptr) pt->record("execute shards");

    if (params.stats != nullptr) {
      // The plan summary was published before the shards ran; carry it
      // across the aggregate assignment.
      plan_summary ps = params.stats->plan;
      *params.stats = agg;
      semisort_stats& st = *params.stats;
      st.plan = ps;
      st.n = n;
      st.shards = S;
      st.spilled_bytes = aliased ? n * kRecordBytes : 0;
      // The call's resident scratch is one engine's working set (shards are
      // sequential) plus the driver's partition matrix.
      st.peak_scratch_bytes = std::max(agg.shard_peak_scratch_bytes,
                                       drv_ctx.scratch.high_water_bytes());
      st.scratch_capacity_bytes = shard_ctx.scratch.capacity_bytes() +
                                  drv_ctx.scratch.capacity_bytes();
    }
  });
}

}  // namespace internal
}  // namespace parsemi
