// The executor — runs a semisort_plan (core/exec_plan.h) without
// re-deciding anything: the dispatch path, scatter path, and shard layout
// all come from the plan the planner (core/planner.h)
// built. This header also owns the one call frame every entry point and
// derived operator shares:
//
//   * context_binding — resolves the pipeline_context, owns the per-call
//     arena frame and accounting for the outermost call on that context.
//   * run_with_pool_override — ships a call onto params.pool when the
//     calling thread is foreign to it.
//   * operator_frame — the two combined plus the stats reset: the thin
//     plan-then-execute prologue all derived operators (group_by,
//     collect_reduce, mapreduce, relational, tag_semisort) call instead of
//     keeping their own copies of this glue.
//
// Plan validation: a reused plan (semisort_params::plan) is checked
// against the call's (n, record_bytes, params fingerprint) binding —
// std::invalid_argument on a mismatch — and executed with zero probe
// passes and zero heap allocations on a warm context.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/bucket_plan.h"
#include "core/dispatch.h"
#include "core/exec_plan.h"
#include "core/local_sort.h"
#include "core/pack_phase.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "core/planner.h"
#include "core/sampler.h"
#include "core/scatter.h"
#include "primitives/merge.h"
#include "sort/radix_sort.h"
#include "util/rng.h"
#include "util/simd.h"

namespace parsemi {
namespace internal {

// Resolves the pipeline_context a call runs on — params.context, else a
// stack-local one — and owns the per-call arena frame and accounting for
// the outermost call on that context (derived operators re-enter with the
// same context; only the outermost frame marks/rewinds the arena base and
// publishes the memory plan to stats via finalize()).
class context_binding {
 public:
  explicit context_binding(const semisort_params& params) {
    if (params.context != nullptr) {
      ctx_ = params.context;
    } else {
      local_.emplace();
      ctx_ = &*local_;
    }
    owner_ = (ctx_->depth++ == 0);
    if (owner_) {
      base_ = ctx_->scratch.mark();
      ctx_->scratch.reset_high_water();
      alloc_snap_ = ctx_->scratch.alloc_count();
      // Snapshot the thread's fallback counter so finalize() can
      // attribute this call's share to its stats.
      fallback_snap_ = tl_sequential_fallbacks;
    }
  }

  ~context_binding() {
    if (owner_) ctx_->scratch.rewind(base_);
    ctx_->depth--;
  }

  context_binding(const context_binding&) = delete;
  context_binding& operator=(const context_binding&) = delete;

  pipeline_context& ctx() { return *ctx_; }

  // Publishes the call's memory plan into `stats` (outermost frame only —
  // a derived operator's numbers cover its tag arrays plus the inner
  // semisort, not the inner call alone).
  void finalize(semisort_stats* stats) {
    if (owner_ && stats != nullptr) {
      stats->peak_scratch_bytes = ctx_->scratch.high_water_bytes();
      stats->arena_allocs = ctx_->scratch.alloc_count() - alloc_snap_;
      stats->scratch_capacity_bytes = ctx_->scratch.capacity_bytes();
      stats->sequential_fallbacks = tl_sequential_fallbacks - fallback_snap_;
    }
  }

 private:
  std::optional<pipeline_context> local_;
  pipeline_context* ctx_ = nullptr;
  arena::checkpoint base_;
  size_t alloc_snap_ = 0;
  uint64_t fallback_snap_ = 0;
  bool owner_ = false;
};

// Ships a whole operator call onto `params.pool` when the calling thread
// is foreign to that pool, so the pipeline runs with the pool's full
// parallelism instead of the counted sequential fallback. Pool members —
// and calls without an override — run inline.
template <typename Fn>
auto run_with_pool_override(const semisort_params& params, Fn&& fn) {
  using R = std::invoke_result_t<Fn&>;
  if (params.pool == nullptr || params.pool->contains_current_thread()) {
    return fn();
  }
  if constexpr (std::is_void_v<R>) {
    params.pool->run([&] { fn(); });
    return;
  } else {
    std::optional<R> result;
    params.pool->run([&] { result.emplace(fn()); });
    return std::move(*result);
  }
}

// The call frame every derived operator shares: pool routing, stats
// reset, context binding, body, memory-plan publication. `fn` receives the
// bound pipeline_context; nested semisort calls inside it should pass
// `inner.context = &ctx` so the whole operator runs on one arena frame.
template <typename Fn>
void operator_frame(const semisort_params& params, Fn&& fn) {
  run_with_pool_override(params, [&] {
    if (params.stats != nullptr) *params.stats = {};
    context_binding bind(params);
    fn(bind.ctx());
    bind.finalize(params.stats);
  });
}

// Same frame without the stats reset — for operators whose caller already
// reset stats, or that fill stats fields before entering the frame.
template <typename Fn>
void operator_frame_keep_stats(const semisort_params& params, Fn&& fn) {
  run_with_pool_override(params, [&] {
    context_binding bind(params);
    fn(bind.ctx());
    bind.finalize(params.stats);
  });
}

// Rejects a cached plan that was built for a different call shape. The
// checks are pure arithmetic — the success path allocates nothing, so
// plan reuse keeps the zero-warm-heap contract.
inline void validate_plan_binding(const semisort_plan& plan, size_t n,
                                  size_t record_bytes,
                                  const semisort_params& params,
                                  const char* who) {
  if (plan.n != n || plan.record_bytes != record_bytes ||
      plan.params_fingerprint != fingerprint_params(params)) {
    throw std::invalid_argument(
        std::string("parsemi::") + who +
        ": cached plan does not match this call (plan bound to n=" +
        std::to_string(plan.n) + ", record_bytes=" +
        std::to_string(plan.record_bytes) + ")");
  }
}

// Copies the plan's decisions into the stats' nested plan{} summary. A
// reused plan reports zero probe passes — the reuse performed none; what
// the original planning cost is the plan's own business.
inline void publish_plan(semisort_stats* stats, const semisort_plan& plan,
                         bool reused) {
  if (stats == nullptr) return;
  plan_summary& ps = stats->plan;
  ps.reused = reused;
  ps.probe_passes = reused ? 0 : plan.probe_passes;
  ps.probe_records = reused ? 0 : plan.probe_records;
  ps.dispatch = plan.dispatch;
  ps.scatter = plan.scatter;
  ps.key_domain_width =
      plan.domain_dense ? static_cast<size_t>(plan.domain_width) : 0;
  ps.predicted_buckets = plan.predicted_buckets;
  ps.shards = plan.num_shards();
  ps.memory_budget = plan.memory_budget;
  ps.pool_workers = plan.pool_workers;
  // The flat legacy field mirrors the probe outcome exactly as the old
  // inline dispatch did: width when the domain was accepted, 0 when it
  // was rejected or the probe never ran.
  stats->key_domain_width = ps.key_domain_width;
}

// Phases 1 and 2, shared by both scatter paths: seeds the attempt's rng
// from (seed, salt), samples and sorts the keys, and builds the bucket
// plan. The plan lives in the caller's arena frame.
template <typename Record, typename GetKey>
bucket_plan sample_and_build_buckets(std::span<const Record> in,
                                     GetKey get_key,
                                     const semisort_params& params,
                                     double alpha, uint64_t attempt_salt,
                                     size_t& sample_size,
                                     pipeline_context& ctx) {
  phase_timer* pt = params.timings;
  if (pt != nullptr) pt->start();
  ctx.base = rng(splitmix64(params.seed + 0x9e3779b9ULL * attempt_salt));

  // Phase 1 — sample and sort.
  std::span<uint64_t> sample =
      sample_keys(in, get_key, params.sampling_p, ctx.base.split(1), ctx);
  switch (params.sample_sort_with) {
    case semisort_params::sample_sorter::radix:
      internal::radix_sort_sample(sample, ctx.scratch);
      break;
    case semisort_params::sample_sorter::merge_sort:
      parallel_merge_sort(sample);
      break;
  }
  sample_size = sample.size();
  if (pt != nullptr) pt->record("sample and sort");

  // Phase 2 — construct buckets.
  bucket_plan plan = build_bucket_plan(std::span<const uint64_t>(sample),
                                       in.size(), params, alpha, ctx);
  if (pt != nullptr) pt->record("construct buckets");
  return plan;
}

// The stats both paths fill the same way. `total_slots` / `heavy_slots`
// describe the layout the scatter wrote into.
inline void publish_run_stats(semisort_stats& st, size_t n, size_t sample_size,
                              const bucket_plan& plan, size_t total_slots,
                              size_t heavy_slots, scatter_path path) {
  st.n = n;
  st.sample_size = sample_size;
  st.num_heavy_keys = plan.num_heavy;
  st.num_light_buckets = plan.num_light;
  st.total_slots = total_slots;
  st.heavy_slots = heavy_slots;
  st.scatter_path_used = path;
}

// The general path: exact-count distribution (core/scatter.h). One pass,
// no retry — the layout comes from exact bucket totals, so nothing can
// overflow. Records go straight into `out`; when `out` aliases `in` they
// go into one n-record arena buffer instead, which a parallel copy moves
// back to `out` at the end (lap "pack").
template <typename Record, typename GetKey>
void semisort_exact(std::span<const Record> in, std::span<Record> out,
                    GetKey get_key, const semisort_params& params,
                    bool aliased, uint64_t attempt_salt,
                    pipeline_context& ctx) {
  size_t n = in.size();
  arena_scope frame(ctx.scratch);
  phase_timer* pt = params.timings;
  size_t sample_size = 0;
  bucket_plan plan = sample_and_build_buckets(in, get_key, params,
                                              params.alpha, attempt_salt,
                                              sample_size, ctx);

  // Phase 3 — scatter. `start` is the exact layout: bucket b is
  // dest[start[b], start[b+1]), heavy buckets first.
  std::span<Record> dest =
      aliased ? std::span<Record>(ctx.scratch.alloc<Record>(n), n) : out;
  std::span<const size_t> start = scatter_exact(in, dest, plan, get_key, ctx);
  if (pt != nullptr) pt->record("scatter");

  // Phase 4 — local sort, in place on each light bucket's range.
  local_sort_exact_buckets(dest, start.subspan(plan.num_heavy), get_key,
                           params);
  if (pt != nullptr) pt->record("local sort");

  if (params.stats != nullptr) {
    semisort_stats& st = *params.stats;
    // The heavy buckets come first in the layout, so the heavy-record
    // count is where the light buckets start.
    size_t heavy = start[plan.num_heavy];
    publish_run_stats(st, n, sample_size, plan, n, heavy,
                      scatter_path::blocked);
    st.heavy_records = heavy;
    st.probe_hist = {};
    st.max_probe = 0;
  }

  if (aliased) {
    parallel_for_blocks(n, internal::scan_block_size(n),
                        [&](size_t, size_t lo, size_t hi) {
                          simd::copy_records(out.data() + lo, dest.data() + lo,
                                             hi - lo);
                        });
    if (pt != nullptr) pt->record("pack");
  }
}

// One Las-Vegas attempt of the paper's five-phase pipeline on the CAS
// scatter (the reference ablation). Returns false on bucket overflow or a
// sentinel clash — before anything is written to `out`, so `in` is still
// intact when it aliases `out`.
template <typename Record, typename GetKey>
bool semisort_attempt(std::span<const Record> in, std::span<Record> out,
                      GetKey get_key, const semisort_params& params,
                      double alpha, uint64_t attempt_salt,
                      pipeline_context& ctx) {
  size_t n = in.size();
  arena_scope attempt_frame(ctx.scratch);
  phase_timer* pt = params.timings;
  size_t sample_size = 0;
  bucket_plan plan = sample_and_build_buckets(in, get_key, params, alpha,
                                              attempt_salt, sample_size, ctx);
  rng& base = ctx.base;

  // Phase 3 — scatter.
  scatter_storage<Record> storage(plan.total_slots, base.split(2).next() | 1,
                                  ctx);
  scatter_probe_stats probe;
  scatter_result result =
      scatter_records(in, storage, plan, get_key, params, base.split(3),
                      params.stats != nullptr ? &probe : nullptr);
  if (pt != nullptr) pt->record("scatter");
  if (result != scatter_result::ok) return false;

  // Phase 4 — compact and local sort.
  std::span<size_t> light_counts(ctx.scratch.alloc<size_t>(plan.num_light),
                                 plan.num_light);
  local_sort_light_buckets(storage, plan, get_key, params, light_counts);
  if (pt != nullptr) pt->record("local sort");

  // Stats are gathered before the pack so that `out` may alias `in`
  // (the in-place entry point): every input record already lives in
  // `storage`, and nothing below reads `in` again.
  if (params.stats != nullptr) {
    semisort_stats& st = *params.stats;
    publish_run_stats(st, n, sample_size, plan, plan.total_slots,
                      plan.heavy_slots_end, scatter_path::cas);
    size_t blocks = internal::scan_num_blocks(n);
    std::span<size_t> sums(ctx.scratch.alloc<size_t>(blocks), blocks);
    st.heavy_records =
        plan.num_heavy == 0
            ? 0
            : reduce_index<size_t>(
                  n,
                  [&](size_t i) -> size_t {
                    return plan.bucket_of(get_key(in[i])) < plan.num_heavy;
                  },
                  0, sums);
    for (size_t b = 0; b < semisort_stats::kProbeBins; ++b)
      st.probe_hist[b] = probe.bins[b].load(std::memory_order_relaxed);
    st.max_probe = probe.max.load(std::memory_order_relaxed);
    if (pt != nullptr) pt->record("stats");
  }

  // Phase 5 — pack.
  size_t written = pack_output(storage, plan,
                               std::span<const size_t>(light_counts), out,
                               params, ctx);
  if (pt != nullptr) pt->record("pack");
  if (written != n) {
    // Every record was claimed exactly once, so this can only mean a bug.
    throw std::logic_error("parsemi::semisort: packed " +
                           std::to_string(written) + " of " +
                           std::to_string(n) + " records");
  }
  return true;
}

// Out-of-core execution of a sharded plan (shard/shard_driver.h, included
// at the bottom of core/semisort.h — the tag_semisort arrangement).
template <typename Record, typename GetKey>
void execute_sharded_plan(std::span<const Record> in, std::span<Record> out,
                          GetKey get_key, const semisort_params& params,
                          const semisort_plan& plan, bool aliased);

// Runs an in-memory (unsharded) plan inside an already-bound frame:
// counting kernels when the plan accepted a dense domain, otherwise the
// plan's scatter path. The exact-count path runs once and cannot fail. The
// CAS path is the Las-Vegas attempt loop; when its retries run out, the
// exact-count path is the final attempt, so the call terminates with
// certainty (stats.restarts then counts every failed CAS attempt). A
// cached counting plan whose domain misses this call's keys falls back to
// the general pipeline on the plan's scatter path, which the planner
// records on every route.
template <typename Record, typename GetKey>
void execute_in_memory_plan(std::span<const Record> in, std::span<Record> out,
                            GetKey get_key, const semisort_params& params,
                            const semisort_plan& plan, bool aliased,
                            context_binding& bind) {
  if (params.stats != nullptr) params.stats->shards = 1;
  if (plan.dispatch == dispatch_path::counting) {
    key_domain dom;
    dom.dense = true;
    dom.min = plan.domain_min;
    dom.width = plan.domain_width;
    if (counting_semisort(in, out, get_key, dom, params, aliased,
                          bind.ctx())) {
      bind.finalize(params.stats);
      return;
    }
    if (params.stats != nullptr) params.stats->key_domain_width = 0;
  }
  int attempt = 0;
  if (plan.scatter == scatter_path::cas) {
    double alpha = params.alpha;
    for (; attempt <= params.max_retries; ++attempt) {
      if (params.timings != nullptr && attempt > 0) params.timings->clear();
      if (semisort_attempt(in, out, get_key, params, alpha,
                           static_cast<uint64_t>(attempt), bind.ctx())) {
        if (params.stats != nullptr) params.stats->restarts = attempt;
        bind.finalize(params.stats);
        return;
      }
      alpha *= 2.0;  // overflow (or sentinel clash): retry with more slack
    }
    if (params.timings != nullptr) params.timings->clear();
  }
  semisort_exact(in, out, get_key, params, aliased,
                 static_cast<uint64_t>(attempt), bind.ctx());
  if (params.stats != nullptr) params.stats->restarts = attempt;
  bind.finalize(params.stats);
}

}  // namespace internal
}  // namespace parsemi
