// Public semisort API — the paper's contribution (Algorithm 1).
//
//   semisort_hashed  — records carry pre-hashed 64-bit keys (the paper's
//                      experimental setting, §5.1). Records with equal keys
//                      end up contiguous in the output. O(n) expected work,
//                      O(log n) depth w.h.p.
//   semisort         — arbitrary keys: hashes internally, verifies that no
//                      two distinct keys collided (Las Vegas: repairs on
//                      collision), returns the reordered input. Defined in
//                      core/tag_semisort.h (included below) on the shared
//                      tag-semisort-permute spine.
//
// Every call is plan-then-execute (ISSUE 10): the planner
// (core/planner.h) makes at most one probe pass over the input and emits a
// semisort_plan — dispatch path, scatter path, shard layout, budget —
// which the executor (core/executor.h) runs verbatim. Plans are
// first-class values: build one with plan_semisort_hashed, inspect or
// serialize it, and hand it back via semisort_params::plan to skip the
// probes entirely on subsequent calls over the same key population.
//
// Pipeline of the general path (all phases named as in §4, surfaced via
// params.timings):
//   1. "sample and sort"    — strided sample of hashed keys, radix-sorted
//   2. "construct buckets"  — heavy/light split and light-range merging
//   3. "scatter"            — exact-count distribution: per-block bucket
//                             histograms lay the buckets out back to back,
//                             then every record moves once into its slot
//   4. "local sort"         — sort each light bucket in place on its range
//      "pack"               — in-place calls only: one parallel copy back
//                             from the n-record staging buffer
// The layout comes from exact counts, so nothing can overflow and the path
// runs once. The paper's CAS scatter (scatter_with = cas) is kept as the
// reference ablation: α·f(s)-sized buckets, a "stats" lap (only with
// params.stats: the heavy-record count), and Phase 5 "pack" to squeeze
// out the holes. Its bucket overflow (probability ≤ n^{-c+1}/log²n,
// Corollary 3.4) and the astronomically-unlikely sentinel clash restart
// the run with doubled α / fresh randomness; when max_retries runs out the
// exact-count path is the final attempt, so every call terminates.
//
// Memory plan: every phase draws scratch from one pipeline_context arena
// (core/pipeline_context.h); each Las-Vegas attempt is an arena checkpoint
// that is rewound whether the attempt succeeds or not. Callers that pass a
// context via semisort_params::context reuse its capacity across calls —
// steady state performs zero heap allocations
// (tests/alloc_regression_test.cpp asserts this).
//
// Out-of-core: when a memory budget is set (params.memory_budget_bytes or
// PARSEMI_MEMORY_BUDGET) and the projected input + scratch footprint
// exceeds it, the plan comes back sharded and the executor routes through
// the shard driver (shard/shard_driver.h, included below), which
// partitions by hash prefix and runs this same in-memory engine once per
// budgeted shard. Unbudgeted calls take the path below unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/exec_plan.h"
#include "core/executor.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "core/planner.h"
#include "hashing/hash64.h"
#include "workloads/record.h"

namespace parsemi {

namespace internal {

// Shared body of semisort_hashed and semisort_hashed_inplace (which differ
// only in whether `out` aliases `in`): resolve the plan — the caller's
// cached one (validated), or a freshly built one — then execute it.
//
// The sharded routing decision is made *before* the context binding: it is
// a sequential sample (shard/shard_plan.h) that needs no pipeline context,
// and the shard driver owns its own contexts. A sharded plan that came
// back with ≤ 1 shard (everything fit after all, or one dominant prefix
// cannot be split) falls back to the in-memory engine with the budget
// lifted — a fresh plan, so the fallback's own probe still runs.
template <typename Record, typename GetKey>
void semisort_hashed_run(std::span<const Record> in, std::span<Record> out,
                         GetKey get_key, const semisort_params& params,
                         bool aliased, const char* who) {
  const semisort_plan* plan = params.plan;
  semisort_plan local;
  if (plan != nullptr) {
    validate_plan_binding(*plan, in.size(), sizeof(Record), params, who);
  } else {
    init_plan_binding(local, in.size(), sizeof(Record), params);
    if (plan_sharded_route(in, get_key, local)) plan = &local;
  }

  if (plan != nullptr && plan->sharded) {
    if (plan->shards.num_shards <= 1) {
      semisort_params inner = params;
      inner.memory_budget_bytes = SIZE_MAX;
      inner.plan = nullptr;
      semisort_hashed_run(in, out, get_key, inner, aliased, who);
      return;
    }
    execute_sharded_plan(in, out, get_key, params, *plan, aliased);
    return;
  }

  run_with_pool_override(params, [&] {
    if (params.stats != nullptr) *params.stats = {};
    context_binding bind(params);
    if (plan == nullptr) {
      plan_in_memory(in, get_key, params, local, bind.ctx());
      plan = &local;
    }
    publish_plan(params.stats, *plan, /*reused=*/params.plan != nullptr);
    execute_in_memory_plan(in, out, get_key, params, *plan, aliased, bind);
  });
}

}  // namespace internal

// Builds — without executing — the plan that semisort_hashed would run
// for `in` under `params`: at most one probe pass, deterministic for a
// fixed (input, params, seed). Hand the result back through
// semisort_params::plan to execute it with zero re-probe (and zero heap
// allocations on a warm context); serialize() it for inspection or
// determinism tests. The plan is bound to this call shape — the executor
// rejects it for a different n, record size, or planning-relevant params.
template <typename Record, typename GetKey = record_key>
semisort_plan plan_semisort_hashed(std::span<const Record> in,
                                   GetKey get_key = {},
                                   const semisort_params& params = {}) {
  params.validate();
  semisort_plan plan;
  internal::init_plan_binding(plan, in.size(), sizeof(Record), params);
  if (internal::plan_sharded_route(in, get_key, plan)) return plan;
  internal::run_with_pool_override(params, [&] {
    internal::context_binding bind(params);
    internal::plan_in_memory(in, get_key, params, plan, bind.ctx());
  });
  return plan;
}

// Semisorts `in` into `out` (same length) by the 64-bit hashed key
// `get_key(record)`. Keys are assumed uniformly distributed over 64 bits
// (pre-hashed); use parsemi::semisort for raw keys. (Keys that are *not*
// hash-distributed still sort correctly: when they occupy a small dense
// integer domain the adaptive front end takes the counting fast path —
// core/dispatch.h.)
template <typename Record, typename GetKey = record_key>
void semisort_hashed(std::span<const Record> in, std::span<Record> out,
                     GetKey get_key = {},
                     const semisort_params& params = {}) {
  size_t n = in.size();
  if (out.size() != n)
    throw std::invalid_argument("parsemi::semisort_hashed: output size mismatch");
  params.validate();
  if (n == 0) return;
  if (n < params.sequential_cutoff || n < 4) {
    std::copy(in.begin(), in.end(), out.begin());
    std::sort(out.begin(), out.end(), [&](const Record& a, const Record& b) {
      return get_key(a) < get_key(b);
    });
    return;
  }
  internal::semisort_hashed_run(in, out, get_key, params,
                                /*aliased=*/in.data() == out.data(),
                                "semisort_hashed");
}

// In-place semisort: reorders `data` directly. The scatter stages every
// record through one n-record arena buffer, which the final copy moves
// back into `data`; on the CAS ablation every record is in the bucket
// array before the pack writes the output, and all Las-Vegas retries
// trigger before the pack, while the input is still intact (the dispatch
// fast paths stage through arena scratch the same way). Same cost as the
// copying version plus one parallel copy, minus the output allocation.
template <typename Record, typename GetKey = record_key>
void semisort_hashed_inplace(std::span<Record> data, GetKey get_key = {},
                             const semisort_params& params = {}) {
  size_t n = data.size();
  params.validate();
  if (n == 0) return;
  if (n < params.sequential_cutoff || n < 4) {
    std::sort(data.begin(), data.end(),
              [&](const Record& a, const Record& b) {
                return get_key(a) < get_key(b);
              });
    return;
  }
  internal::semisort_hashed_run(std::span<const Record>(data), data, get_key,
                                params, /*aliased=*/true,
                                "semisort_hashed_inplace");
}

// Convenience: returns the semisorted copy. Copy-constructs the output
// (memcpy for trivial records — no zero initialization) and reorders it in
// place through the in-place entry point above.
template <typename Record, typename GetKey = record_key>
std::vector<Record> semisort_hashed(std::span<const Record> in,
                                    GetKey get_key = {},
                                    const semisort_params& params = {}) {
  std::vector<Record> out(in.begin(), in.end());
  semisort_hashed_inplace(std::span<Record>(out), get_key, params);
  return out;
}

}  // namespace parsemi

// The general-key `semisort` (and the tag-semisort-permute spine every
// derived operator shares) builds on semisort_hashed; see that header.
#include "core/tag_semisort.h"
// The out-of-core shard driver defines internal::execute_sharded_plan,
// forward-declared in core/executor.h, in terms of the public entry
// points.
#include "shard/shard_driver.h"
