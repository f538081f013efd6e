// Front-end dispatch (ROADMAP item 3): a layer *above* the pipeline that
// inspects the key domain and the requested result shape, then routes the
// call to a specialized integer fast path when one applies:
//
//   * counting — a direct stable counting/radix placement for small dense
//     integer key domains (probe in core/key_domain.h): one counting pass
//     for domain widths ≤ 2^16, two 16-bit-digit LSB radix passes up to
//     2^32 (Dong et al. 2024's playbook). Each pass is one run of the
//     library's stable distribution kernel (distribute_stable,
//     primitives/counting_sort.h) with the key's digit as the bucket. No
//     sampling, no hashing, no Las-Vegas retry — and the output is fully
//     sorted, stable, and byte-identical at every worker count.
//   * offsets — offset-only result shapes that never move a record
//     (count_by_key's histogram path below; group_by_index's index-only
//     counting sort).
//
// Selection mirrors the Phase 3 scatter precedent (core/scatter.h):
// the PARSEMI_DISPATCH_PATH environment variable beats
// semisort_params::dispatch_with beats the adaptive default, and the path
// actually taken is recorded in semisort_stats::dispatch_path_used. A
// forced counting request whose key domain turns out ineligible falls back to the general pipeline — recorded as general with
// key_domain_width == 0, never a wrong answer.
//
// Since the plan/execute split (ISSUE 10) the probe and the decision for
// semisort calls live in the planner (core/planner.h); this header
// provides the counting kernels the executor invokes with the plan's
// accepted domain, plus the self-contained result-shape hooks
// (count_by_key / group_by_index below), which still probe at their call
// sites because their result shapes never reach the record-moving
// pipeline.
//
// All scratch is arena-backed through the call's pipeline_context; the
// fast paths uphold the zero-warm-heap-allocation contract the general
// pipeline established (tests/alloc_regression_test.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "core/key_domain.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "primitives/counting_sort.h"
#include "primitives/histogram.h"
#include "primitives/pack.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"
#include "util/env.h"

namespace parsemi {
namespace internal {

// PARSEMI_DISPATCH_PATH override — same contract as PARSEMI_SCATTER_PATH:
// "general" / "counting" force that strategy; "adaptive" and unknown
// values fall through to the params knob. env_cstr never
// allocates, so the per-call check keeps the zero-heap steady state.
inline bool dispatch_strategy_from_env(
    semisort_params::dispatch_strategy& out) {
  const char* v = env_cstr("PARSEMI_DISPATCH_PATH");
  if (v == nullptr) return false;
  if (std::strcmp(v, "general") == 0) {
    out = semisort_params::dispatch_strategy::general;
    return true;
  }
  if (std::strcmp(v, "counting") == 0) {
    out = semisort_params::dispatch_strategy::counting;
    return true;
  }
  return false;
}

inline semisort_params::dispatch_strategy resolve_dispatch_strategy(
    const semisort_params& params) {
  semisort_params::dispatch_strategy forced;
  if (dispatch_strategy_from_env(forced)) return forced;
  return params.dispatch_with;
}

// One stable counting pass over `width` buckets (distribute_stable,
// primitives/counting_sort.h) in its own arena frame, so a two-pass
// caller's count matrix is rewound before the next pass allocates.
// place(i, pos) receives the source index and its destination slot.
// Returns false, having placed nothing, when some bucket_at(i) ≥ width —
// a record outside the domain (a cached plan reused on other keys).
template <typename BucketAt, typename PlaceFn>
bool counting_place_stable(size_t n, size_t width, BucketAt bucket_at,
                           PlaceFn place, pipeline_context& ctx) {
  arena_scope scope(ctx.scratch);
  std::span<size_t> layout =
      distribute_stable(n, width, bucket_at, place, ctx.scratch);
  return !layout.empty();
}

// Stable counting semisort over an accepted dense domain. One blocked pass
// when the width fits 2^16 buckets; otherwise two 16-bit-digit LSB radix
// passes — pass 1 (low digit) into an arena temp, pass 2 (high digit) from
// the temp into `out`, which preserves pass 1's order within equal high
// digits, so the composition is a stable sort by key. When `out` aliases
// `in` (the in-place entry), the one-pass shape places into a temp and
// copies back; the two-pass shape is alias-safe as-is because pass 2 never
// reads `in`. Returns false, with `out` untouched, when a key falls outside
// `dom` — only possible for a cached plan reused on other keys; the first
// count pass checks every record before anything moves.
template <typename Record, typename GetKey>
bool counting_semisort(std::span<const Record> in, std::span<Record> out,
                       GetKey&& get_key, const key_domain& dom,
                       const semisort_params& params, bool aliased,
                       pipeline_context& ctx) {
  size_t n = in.size();
  phase_timer* pt = params.timings;
  if (pt != nullptr) pt->start();
  arena_scope frame(ctx.scratch);
  const uint64_t min = dom.min;
  const uint64_t width = dom.width;
  const Record* src = in.data();
  size_t passes;
  if (width <= kCountingOnePassMaxWidth) {
    passes = 1;
    Record* dst = aliased ? ctx.scratch.alloc<Record>(n) : out.data();
    if (!counting_place_stable(
            n, static_cast<size_t>(width),
            [src, get_key, min](size_t i) {
              return static_cast<size_t>(get_key(src[i]) - min);
            },
            [src, dst](size_t i, size_t pos) { dst[pos] = src[i]; }, ctx))
      return false;
    if (pt != nullptr) pt->record("dispatch count place");
    if (aliased) {
      parallel_for_blocks(n, scan_block_size(n),
                          [&](size_t, size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) out[i] = dst[i];
                          });
      if (pt != nullptr) pt->record("dispatch copy back");
    }
  } else {
    passes = 2;
    Record* tmp = ctx.scratch.alloc<Record>(n);
    Record* dst = out.data();
    size_t high_width = static_cast<size_t>(((width - 1) >> 16) + 1);
    // Pass 1 maps out-of-domain keys past the digit range, so its count
    // pass rejects them and pass 2's high digits stay below high_width.
    if (!counting_place_stable(
            n, static_cast<size_t>(kCountingOnePassMaxWidth),
            [src, get_key, min, width](size_t i) {
              uint64_t k = get_key(src[i]) - min;
              return k < width ? static_cast<size_t>(k & 0xffff) : SIZE_MAX;
            },
            [src, tmp](size_t i, size_t pos) { tmp[pos] = src[i]; }, ctx))
      return false;
    if (pt != nullptr) pt->record("dispatch radix pass 1");
    counting_place_stable(
        n, high_width,
        [tmp, get_key, min](size_t i) {
          return static_cast<size_t>((get_key(tmp[i]) - min) >> 16);
        },
        [tmp, dst](size_t i, size_t pos) { dst[pos] = tmp[i]; }, ctx);
    if (pt != nullptr) pt->record("dispatch radix pass 2");
  }
  if (params.stats != nullptr) {
    semisort_stats& st = *params.stats;
    st.n = n;
    st.dispatch_path_used = dispatch_path::counting;
    st.key_domain_width = static_cast<size_t>(dom.width);
    st.counting_passes = passes;
  }
  return true;
}

// Offset-only count_by_key (the `offsets` result shape): a pure histogram
// over the dense domain — no tags, no scatter, and no record ever moves;
// the only heap allocation is the (key, count) result itself. `Result` is
// std::vector<std::pair<K, size_t>>; the integral-key / trivial-equality
// gate lives at the call site (core/collect_reduce.h). Returns true when
// handled.
template <typename K, typename Result>
bool try_dispatch_count_by_key(std::span<const K> keys, Result& out,
                               const semisort_params& params,
                               pipeline_context& ctx) {
  using strategy = semisort_params::dispatch_strategy;
  strategy s = resolve_dispatch_strategy(params);
  if (s == strategy::general) return false;
  size_t n = keys.size();
  key_domain dom = probe_key_domain(
      n, [&](size_t i) { return to_ordered_u64(keys[i]); }, ctx);
  if (params.stats != nullptr) {
    params.stats->key_domain_width =
        dom.dense ? static_cast<size_t>(dom.width) : 0;
  }
  if (!dom.dense) return false;
  phase_timer* pt = params.timings;
  if (pt != nullptr) pt->start();
  arena_scope frame(ctx.scratch);
  size_t width = static_cast<size_t>(dom.width);
  std::span<size_t> totals(ctx.scratch.alloc<size_t>(width), width);
  if (dom.width <= kCountingOnePassMaxWidth) {
    size_t block = histogram_block_size(n, width);
    size_t num_blocks = histogram_num_blocks(n, block);
    size_t* counts = ctx.scratch.alloc<size_t>(num_blocks * width);
    auto bucket_at = [&](size_t i) {
      return static_cast<size_t>(to_ordered_u64(keys[i]) - dom.min);
    };
    histogram_blocks(n, block, width, counts, bucket_at);
    parallel_for(0, width, [&](size_t k) {
      size_t sum = 0;
      for (size_t b = 0; b < num_blocks; ++b) sum += counts[b * width + k];
      totals[k] = sum;
    });
  } else {
    // Wide domains: the blocked matrix would dwarf n, so accumulate with
    // relaxed atomics instead — the fork-join barrier orders every
    // increment before the reads below, which is all the counting needs.
    parallel_for_blocks(width, scan_block_size(width),
                        [&](size_t, size_t lo, size_t hi) {
                          std::fill(
                              totals.begin() + static_cast<ptrdiff_t>(lo),
                              totals.begin() + static_cast<ptrdiff_t>(hi),
                              size_t{0});
                        });
    parallel_for_blocks(n, scan_block_size(n),
                        [&](size_t, size_t lo, size_t hi) {
                          for (size_t i = lo; i < hi; ++i) {
                            size_t k = static_cast<size_t>(
                                to_ordered_u64(keys[i]) - dom.min);
                            std::atomic_ref<size_t>(totals[k]).fetch_add(
                                1, std::memory_order_relaxed);
                          }
                        });
  }
  std::span<size_t> nonempty = pack_index_arena(
      width,
      [&](size_t k) { return totals[k] != 0; }, ctx.scratch);
  out.resize(nonempty.size());
  parallel_for(0, nonempty.size(), [&](size_t g) {
    size_t k = nonempty[g];
    out[g] = {from_ordered_u64<K>(dom.min + k), totals[k]};
  });
  if (pt != nullptr) pt->record("dispatch count offsets");
  if (params.stats != nullptr) {
    semisort_stats& st = *params.stats;
    st.n = n;
    st.dispatch_path_used = dispatch_path::offsets;
    st.key_domain_width = width;
    st.counting_passes = 1;
  }
  return true;
}

// Dense fast path for group_by_index: a counting sort of the *indices* —
// the records themselves never move, matching the operator's contract.
// `Result` is grouped_indices (core/group_by.h; templated to keep this
// header below it in the include graph). Stable placement: order within a
// group = input order. Returns true when handled.
template <typename Record, typename GetKey, typename Result>
bool try_dispatch_group_by_index(std::span<const Record> in, GetKey&& get_key,
                                 const semisort_params& params, Result& result,
                                 pipeline_context& ctx) {
  using strategy = semisort_params::dispatch_strategy;
  strategy s = resolve_dispatch_strategy(params);
  if (s == strategy::general) return false;
  size_t n = in.size();
  key_domain dom = probe_key_domain(
      n, [&](size_t i) { return get_key(in[i]); }, ctx);
  if (params.stats != nullptr) {
    params.stats->key_domain_width =
        dom.dense ? static_cast<size_t>(dom.width) : 0;
  }
  if (!dom.dense) return false;
  phase_timer* pt = params.timings;
  if (pt != nullptr) pt->start();
  arena_scope frame(ctx.scratch);
  const uint64_t min = dom.min;
  const Record* src = in.data();
  result.order.resize(n);
  size_t* order = result.order.data();
  size_t passes = 1;
  if (dom.width <= kCountingOnePassMaxWidth) {
    counting_place_stable(
        n, static_cast<size_t>(dom.width),
        [src, get_key, min](size_t i) {
          return static_cast<size_t>(get_key(src[i]) - min);
        },
        [order](size_t i, size_t pos) { order[pos] = i; }, ctx);
  } else {
    passes = 2;
    size_t* tmp = ctx.scratch.alloc<size_t>(n);
    size_t high_width = static_cast<size_t>(((dom.width - 1) >> 16) + 1);
    counting_place_stable(
        n, static_cast<size_t>(kCountingOnePassMaxWidth),
        [src, get_key, min](size_t i) {
          return static_cast<size_t>((get_key(src[i]) - min) & 0xffff);
        },
        [tmp](size_t i, size_t pos) { tmp[pos] = i; }, ctx);
    counting_place_stable(
        n, high_width,
        [src, tmp, get_key, min](size_t i) {
          return static_cast<size_t>((get_key(src[tmp[i]]) - min) >> 16);
        },
        [tmp, order](size_t i, size_t pos) { order[pos] = tmp[i]; }, ctx);
  }
  if (pt != nullptr) pt->record("dispatch index place");
  std::span<size_t> starts = pack_index_arena(
      n,
      [&](size_t i) {
        return i == 0 || get_key(in[order[i]]) != get_key(in[order[i - 1]]);
      },
      ctx.scratch);
  result.group_start.assign(starts.begin(), starts.end());
  result.group_start.push_back(n);
  if (pt != nullptr) pt->record("dispatch group starts");
  if (params.stats != nullptr) {
    semisort_stats& st = *params.stats;
    st.n = n;
    st.dispatch_path_used = dispatch_path::counting;
    st.key_domain_width = static_cast<size_t>(dom.width);
    st.counting_passes = passes;
  }
  return true;
}

}  // namespace internal
}  // namespace parsemi
