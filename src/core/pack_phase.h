// Phase 5 — packing (§4 Phase 5; step 8 of Alg. 1).
//
// Heavy region: the slot array up to heavy_slots_end is cut into ~1000
// intervals; each interval is compacted in place by a sequential
// two-pointer sweep (intervals in parallel), a sequential prefix sum over
// the interval counts fixes each interval's position in the output, and
// the compacted intervals are copied out in parallel. Order of surviving
// slots is preserved, and since every heavy bucket is a contiguous slot
// range, its records stay contiguous.
//
// Light region: Phase 4 already compacted each light bucket to its start,
// so a scan over the per-bucket counts and a parallel copy finish the job.
//
// All interval/offset scratch comes from ctx.scratch (freed by the caller's
// checkpoint rewind); nothing here touches the heap.
//
// Returns the number of records written, which the caller asserts equals n.
#pragma once

#include <algorithm>
#include <span>

#include "core/bucket_plan.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "core/scatter.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"
#include "util/simd.h"

namespace parsemi {

template <typename Record>
size_t pack_output(scatter_storage<Record>& storage, const bucket_plan& plan,
                   std::span<const size_t> light_counts, std::span<Record> out,
                   const semisort_params& params, pipeline_context& ctx) {
  arena& scratch = ctx.scratch;

  // --- heavy region ---
  size_t heavy_slots = plan.heavy_slots_end;
  size_t heavy_total = 0;
  if (heavy_slots > 0) {
    size_t num_intervals = std::min<size_t>(
        std::max<size_t>(params.pack_intervals, 1), heavy_slots);
    std::span<size_t> interval_start(scratch.alloc<size_t>(num_intervals + 1),
                                     num_intervals + 1);
    for (size_t t = 0; t <= num_intervals; ++t)
      interval_start[t] = (t * heavy_slots) / num_intervals;
    std::span<size_t> interval_count(scratch.alloc<size_t>(num_intervals),
                                     num_intervals);

    parallel_for(
        0, num_intervals,
        [&](size_t t) {
          size_t lo = interval_start[t], hi = interval_start[t + 1];
          size_t w = lo;
          for (size_t r = lo; r < hi; ++r) {
            if (storage.occupied(r)) {
              if (w != r) storage.slots[w] = storage.slots[r];
              ++w;
            }
          }
          interval_count[t] = w - lo;
        },
        1);

    size_t scan_blocks = internal::scan_num_blocks(num_intervals);
    std::span<size_t> scan_scratch(scratch.alloc<size_t>(scan_blocks),
                                   scan_blocks);
    heavy_total = scan_exclusive_inplace(interval_count, size_t{0}, scan_scratch);
    parallel_for(
        0, num_intervals,
        [&](size_t t) {
          size_t lo = interval_start[t];
          size_t count = (t + 1 < num_intervals ? interval_count[t + 1]
                                                : heavy_total) -
                         interval_count[t];
          // out never aliases the slot array, so the run moves with one
          // widened memcpy instead of std::copy's memmove.
          simd::copy_records(out.data() + interval_count[t],
                             storage.slots.data() + lo, count);
        },
        1);
  }

  // --- light region (already compacted per bucket in Phase 4) ---
  size_t num_light = light_counts.size();
  std::span<size_t> light_out_offset(scratch.alloc<size_t>(num_light),
                                     num_light);
  parallel_for(0, num_light, [&](size_t j) {
    light_out_offset[j] = light_counts[j];
  });
  size_t scan_blocks = internal::scan_num_blocks(num_light);
  std::span<size_t> scan_scratch(scratch.alloc<size_t>(scan_blocks),
                                 scan_blocks);
  size_t light_total =
      scan_exclusive_inplace(light_out_offset, heavy_total, scan_scratch);
  light_total -= heavy_total;
  parallel_for(
      0, plan.num_light,
      [&](size_t j) {
        size_t lo = plan.bucket_offset[plan.num_heavy + j];
        simd::copy_records(out.data() + light_out_offset[j],
                           storage.slots.data() + lo, light_counts[j]);
      },
      1);

  return heavy_total + light_total;
}

}  // namespace parsemi
