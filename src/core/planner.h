// The planner — fills a semisort_plan (core/exec_plan.h) with every
// decision one semisort call needs, performing AT MOST ONE probe pass over
// the input:
//
//   * unsharded route — the only scan is the key-domain probe
//     (core/key_domain.h), and it runs only when the dispatch strategy
//     wants it.
//   * sharded route — the only scan is plan_shards' strided histogram
//     sample (shard/shard_plan.h). The key-domain probe is skipped
//     entirely: each shard's engine call plans its own shard-local domain,
//     where the shard IS the input.
//
// Both routes record the scatter path, chosen from params alone
// (init_plan_binding), not from a scan.
//
// The probe-pass accounting (plan.probe_passes / probe_records) makes the
// contract observable — tests/plan_test.cpp pins it to ≤ 1.
//
// Purity rule (enforced by parsemi-check's planner-pure rule): functions
// in this header never open an arena_scope and never spawn parallel work
// themselves — planning orchestrates probes, it does not execute. The
// probes it calls (probe_key_domain, plan_shards) own their scratch and
// parallelism in their home headers.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/bucket_plan.h"
#include "core/exec_plan.h"
#include "core/key_domain.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "core/scatter.h"
#include "primitives/histogram.h"
#include "scheduler/scheduler.h"
#include "shard/shard_plan.h"
#include "util/env.h"
#include "util/rng.h"

namespace parsemi {
namespace internal {

// The memory budget in force for a call: the explicit param wins;
// 0 defers to PARSEMI_MEMORY_BUDGET; SIZE_MAX (the shard driver's inner
// calls) means unconditionally unlimited. Returns 0 for "unlimited" —
// allocation-free, so the unbudgeted fast path stays zero-heap.
inline size_t resolve_memory_budget(const semisort_params& params) {
  if (params.memory_budget_bytes == SIZE_MAX) return 0;
  if (params.memory_budget_bytes != 0) return params.memory_budget_bytes;
  return static_cast<size_t>(
      env_byte_size("PARSEMI_MEMORY_BUDGET").value_or(0));
}

// One splitmix64 step per field keeps the fingerprint order-sensitive, so
// two params that differ in any planning-relevant knob collide with
// probability 2^-64, not by field aliasing.
inline uint64_t fp_mix(uint64_t h, uint64_t v) {
  return splitmix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

inline uint64_t fp_mix_f64(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return fp_mix(h, bits);
}

// Hash over every params knob that feeds a planning decision (or the
// execution a plan pins down — seed and retry policy included, since a
// serialized plan must describe one reproducible run). Deliberately
// excludes the non-semantic plumbing: stats/timings/context/pool/plan.
inline uint64_t fingerprint_params(const semisort_params& p) {
  uint64_t h = 0x70617273656d6931ULL;  // "parsemi1"
  h = fp_mix_f64(h, p.sampling_p);
  h = fp_mix(h, p.delta);
  h = fp_mix(h, p.num_hash_ranges);
  h = fp_mix_f64(h, p.c);
  h = fp_mix_f64(h, p.alpha);
  h = fp_mix(h, p.round_to_pow2 ? 1 : 0);
  h = fp_mix(h, p.merge_light_buckets ? 1 : 0);
  h = fp_mix(h, p.light_bucket_samples);
  h = fp_mix(h, static_cast<uint64_t>(p.local_sort));
  h = fp_mix(h, static_cast<uint64_t>(p.sample_sort_with));
  h = fp_mix(h, static_cast<uint64_t>(p.probing));
  h = fp_mix(h, static_cast<uint64_t>(p.scatter_with));
  h = fp_mix(h, static_cast<uint64_t>(p.dispatch_with));
  h = fp_mix(h, p.pack_intervals);
  h = fp_mix(h, p.seed);
  h = fp_mix(h, static_cast<uint64_t>(p.max_retries));
  h = fp_mix(h, p.sequential_cutoff);
  h = fp_mix(h, p.memory_budget_bytes);
  return h;
}

// Expected merged-light-bucket count of a run, from knowns only: the
// sample has ~n·p keys, merging targets light_merge_target of them per
// bucket (core/bucket_plan.h), and the range partition caps the total. A
// reported prediction (plan.predicted_buckets, compared against the real
// count by the benchmark), and the shard planner's scratch model sizes its
// bucket tables from it; it routes nothing.
inline size_t predict_bucket_count(size_t n, const semisort_params& params) {
  size_t ranges = num_light_ranges(params);
  if (!params.merge_light_buckets) return ranges;
  double sample = static_cast<double>(n) * params.sampling_p;
  double light = sample / static_cast<double>(light_merge_target(params));
  size_t est = light < 1.0 ? 1 : static_cast<size_t>(light);
  return est > ranges ? ranges : est;
}

// Worker count of the pool the plan will execute on (params.pool routing
// included) — recorded in the plan so a serialized plan names its
// execution environment.
inline int planned_pool_workers(const semisort_params& params) {
  return params.pool != nullptr ? params.pool->num_workers() : num_workers();
}

inline void init_plan_binding(semisort_plan& plan, size_t n,
                              size_t record_bytes,
                              const semisort_params& params) {
  plan.n = n;
  plan.record_bytes = record_bytes;
  plan.params_fingerprint = fingerprint_params(params);
  plan.memory_budget = resolve_memory_budget(params);
  plan.pool_workers = planned_pool_workers(params);
  plan.scatter = choose_scatter_path(params);
}

// Scratch-requirement model for one in-memory engine run over the call's
// params on a given scatter path and worker count — what the shard planner
// sizes shards against. Each term is an allocation the engine makes from
// the call's arena, fitted against stats.peak_scratch_bytes (EXPERIMENTS.md,
// "Budgeted in-place calls at in-memory cost"):
//   * the sample, n·p keys. Its radix-sort buffer, the same size again, is
//     freed before the bucket plan, which is always larger, so the peak is
//     the sample plus the larger of the two;
//   * the bucket plan: the distinct sample keys' boundaries (≤ n·p), the
//     heavy-key list (n·p/δ entries), the range tables (num_light_ranges ×
//     20 B: light-bucket map, per-range sample counts, bucket offsets) and
//     the heavy table (36 B per heavy key);
//   * exact-count path: the 16-bit id buffer (2 B per record, below 65,535
//     buckets) and the (blocks × buckets) count matrix, whose block count
//     grows with the worker count (histogram_block_size);
//   * CAS path: α·f(s) bucket slots per record, each a record plus a flag
//     byte.
// Bucket counts are estimated, not known: predict_bucket_count's light
// buckets and n·p/(2δ) heavy keys, half the most a sample can hold.
//
// The model counts requested bytes, the arena's high-water mark. The
// arena's capacity can sit above it (a new block is at least the current
// total, core/arena.h); EXPERIMENTS.md measures that gap.
struct scratch_model {
  semisort_params params{};
  int workers = 1;
  scatter_path scatter = scatter_path::blocked;

  // Scratch (arena) bytes one in-memory run over n records needs.
  size_t estimate_bytes(size_t n, size_t record_bytes) const {
    auto bytes = [](double x) { return static_cast<size_t>(x); };
    double samples = static_cast<double>(n) * params.sampling_p;
    size_t ranges = num_light_ranges(params);
    size_t heavy = bytes(samples / static_cast<double>(2 * params.delta));
    size_t light = predict_bucket_count(n, params);
    size_t buckets = light + heavy;

    size_t sample = 8 * bytes(samples);
    size_t plan = 8 * bytes(samples) +
                  16 * bytes(samples / static_cast<double>(params.delta)) +
                  20 * ranges + (8 + 36) * heavy;
    size_t scatter_bytes = 0;
    if (scatter == scatter_path::cas) {
      // α·f(s) slots per record, measured 1.9–2.8 at the default α and
      // light_bucket_samples; α scales them.
      double slots = 3.0 * params.alpha / semisort_params{}.alpha;
      scatter_bytes = bytes(static_cast<double>(n) * slots *
                            static_cast<double>(record_bytes + 1)) +
                      8 * light;
    } else {
      size_t block = histogram_block_size(
          n, buckets, static_cast<size_t>(std::max(workers, 1)));
      size_t blocks = histogram_num_blocks(n, block);
      scatter_bytes = 8 * (blocks + 1) * (buckets + 1) +
                      (buckets < 0xffff ? 2 * n : 0);
    }
    return sample + std::max(sample, plan + scatter_bytes);
  }

  // The scratch charged even for an empty run: the range tables.
  size_t fixed_bytes() const { return estimate_bytes(0, 0); }

  // Total footprint: resident input + scratch. The planner compares this
  // against the byte budget to decide whether a call shards at all.
  size_t footprint_bytes(size_t n, size_t record_bytes) const {
    return n * record_bytes + estimate_bytes(n, record_bytes);
  }

  // Largest record count whose footprint fits `budget`, by binary search;
  // 0 when even the fixed cost does not fit. The footprint grows with n
  // but for one step down, where the bucket estimate reaches 65,535 and the
  // id buffer drops out; a budget past that step may get a count below it,
  // which still fits.
  size_t records_for_budget(size_t budget, size_t record_bytes) const {
    size_t lo = 0, hi = budget / std::max<size_t>(record_bytes, 1) + 1;
    while (hi - lo > 1) {
      size_t mid = lo + (hi - lo) / 2;
      if (footprint_bytes(mid, record_bytes) <= budget) lo = mid;
      else hi = mid;
    }
    return footprint_bytes(lo, record_bytes) <= budget ? lo : 0;
  }

  // The smallest budget shards are sized for: twice the fixed cost. Below
  // the fixed cost no shard size fits at all, and just above it the
  // capacity would be a handful of records: thousands of shards, nearly
  // all below the engine's sequential cutoff. So a budget at or below the
  // floor is planned as the floor, best-effort like a dominant key's shard
  // (shard/shard_plan.h); the driver reports the real footprint via
  // stats.shard_peak_scratch_bytes. The floor keeps the capacity monotone
  // in the budget.
  size_t budget_floor() const { return 2 * fixed_bytes(); }

  // Records per shard under `budget`, the floor applied.
  size_t shard_capacity(size_t budget, size_t record_bytes) const {
    return records_for_budget(std::max(budget, budget_floor()), record_bytes);
  }
};

// Sharded-route planning: when the projected in-memory footprint exceeds
// the resolved budget, group hash-prefix bins into budget-sized shards
// (shard/shard_plan.h — a sequential strided sample, this plan's one
// probe). Returns true when the budget forces the shard route; the plan
// may still come back with num_shards == 1 (everything fit after all, or
// one dominant prefix cannot be split) — the executor then falls back to
// the in-memory engine with the budget lifted, exactly the pre-plan
// behaviour.
template <typename Record, typename GetKey>
bool plan_sharded_route(std::span<const Record> in, GetKey&& get_key,
                        const semisort_params& params, semisort_plan& plan) {
  if (plan.memory_budget == 0) return false;
  size_t n = in.size();
  scratch_model model{params, plan.pool_workers, plan.scatter};
  if (model.footprint_bytes(n, sizeof(Record)) <= plan.memory_budget)
    return false;
  plan.sharded = true;
  plan.shards = plan_shards(
      in, get_key, model.shard_capacity(plan.memory_budget, sizeof(Record)));
  plan.probe_passes = 1;
  plan.probe_records = std::min(n, size_t{1} << 16);  // the strided sample
  return true;
}

// In-memory planning: resolve the front-end dispatch (running the
// key-domain probe only when the strategy asks for it — this route's one
// probe), then record the predicted bucket count.
template <typename Record, typename GetKey>
void plan_in_memory(std::span<const Record> in, GetKey&& get_key,
                    const semisort_params& params, semisort_plan& plan,
                    pipeline_context& ctx) {
  size_t n = in.size();
  if (params.dispatch_with != semisort_params::dispatch_strategy::general) {
    size_t read = 0;
    key_domain dom = probe_key_domain(
        n, [&](size_t i) { return get_key(in[i]); }, ctx, &read);
    plan.probe_passes = 1;
    plan.probe_records = read;
    plan.domain_dense = dom.dense;
    plan.domain_min = dom.min;
    plan.domain_width = dom.width;
    if (dom.dense) {
      plan.dispatch = dispatch_path::counting;
      plan.counting_passes = dom.width <= kCountingOnePassMaxWidth ? 1 : 2;
    }
  }
  if (plan.dispatch == dispatch_path::general)
    plan.predicted_buckets = predict_bucket_count(n, params);
}

}  // namespace internal
}  // namespace parsemi
