// shard_driver — out-of-core execution of a sharded semisort_plan.
// Included at the bottom of core/semisort.h (the same arrangement as
// core/tag_semisort.h); core/executor.h forward-declares
// execute_sharded_plan and core/semisort.h routes here when the planner
// came back with a multi-shard plan.
//
// Structure of a sharded call (the plan is made before the driver runs —
// shard/shard_plan.h groups hash-prefix bins into shards whose estimated
// input + engine scratch fits the budget):
//   1. partition — one pass of the library's stable distribution kernel
//                (distribute_stable, primitives/counting_sort.h — the same
//                pass the exact-count scatter and the dispatch fast path
//                run) moves every record to its shard's contiguous range,
//                and its layout is the shard ranges. The destination is the
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

#include "core/exec_plan.h"
#include "core/executor.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "primitives/counting_sort.h"
#include "scheduler/scheduler.h"
#include "shard/shard_plan.h"
#include "shard/spill_file.h"

namespace parsemi {
namespace internal {

// Folds one shard's engine counters into the call-level aggregate: counts
// sum, histogram bins sum, probe/scratch maxima take the max, and the
// path-choice fields report the last shard that ran the engine (shards see
// the same distribution family, so they almost always agree). A shard
// below sequential_cutoff is sorted without touching its stats (n stays 0)
// and leaves those fields alone.
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
  for (size_t b = 0; b < semisort_stats::kProbeBins; ++b)
    agg.probe_hist[b] += s.probe_hist[b];
  agg.max_probe = std::max(agg.max_probe, s.max_probe);
  agg.shard_peak_scratch_bytes =
      std::max(agg.shard_peak_scratch_bytes, s.peak_scratch_bytes);
  if (s.n == 0) return;
  agg.scatter_path_used = s.scatter_path_used;
  agg.dispatch_path_used = s.dispatch_path_used;
  agg.key_domain_width = s.key_domain_width;
  agg.counting_passes = s.counting_passes;
}

template <typename Record, typename GetKey>
void execute_sharded_plan(std::span<const Record> in, std::span<Record> out,
                          GetKey get_key, const semisort_params& params,
                          const semisort_plan& plan, bool aliased) {
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

    // Stable partition by shard id: one distribute_stable pass
    // (primitives/counting_sort.h), whose layout is the shard ranges.
    arena partition_scratch;
    const Record* src = in.data();
    Record* part_dst = part.data();
    const shard_plan* shards = &sp;
    std::span<const size_t> shard_begin = distribute_stable(
        n, S,
        [src, shards, get_key](size_t i) {
          return shards->shard_of_key(get_key(src[i]));
        },
        [src, part_dst](size_t i, size_t pos) { part_dst[pos] = src[i]; },
        partition_scratch);
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
                                       partition_scratch.high_water_bytes());
      st.scratch_capacity_bytes = shard_ctx.scratch.capacity_bytes() +
                                  partition_scratch.capacity_bytes();
    }
  });
}

}  // namespace internal
}  // namespace parsemi
