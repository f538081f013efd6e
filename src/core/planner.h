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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/exec_plan.h"
#include "core/key_domain.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "core/scatter.h"
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
// sample has ~n·p keys, merging targets light_bucket_samples of them per
// bucket, and the range partition caps the total. A reported prediction
// (plan.predicted_buckets, compared against the real count by the
// benchmark); it routes nothing.
inline size_t predict_bucket_count(size_t n, const semisort_params& params) {
  if (!params.merge_light_buckets) return params.num_hash_ranges;
  double sample = static_cast<double>(n) * params.sampling_p;
  double light = sample / static_cast<double>(params.light_bucket_samples);
  size_t est = light < 1.0 ? 1 : static_cast<size_t>(light);
  return est > params.num_hash_ranges ? params.num_hash_ranges : est;
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
                        semisort_plan& plan) {
  if (plan.memory_budget == 0) return false;
  size_t n = in.size();
  if (scratch_model{}.footprint_bytes(n, sizeof(Record)) <=
      plan.memory_budget)
    return false;
  plan.sharded = true;
  plan.shards = plan_shards(in, get_key, plan.memory_budget, scratch_model{});
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
