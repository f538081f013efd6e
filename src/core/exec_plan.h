// semisort_plan — the first-class execution plan of one semisort call.
//
// PRs 3–8 grew four independent decision points, each re-interleaved with
// execution: the front-end dispatch probe (core/dispatch.h), the scatter
// heuristic (core/scatter.h), shard planning + budget resolution
// (shard/shard_plan.h), and pool routing. This header is the explicit
// "decide once, execute many" split — the interface-family framing of
// Dong et al. 2024 and IPS⁴o's precomputed decision tree: the planner
// (core/planner.h) performs at most ONE probe pass over the input and
// fills this struct; the executor (core/executor.h) runs it without
// re-deciding anything.
//
// Plans are values:
//   * reusable — pass a built plan back via semisort_params::plan and the
//     call skips every probe (probe_passes stays 0 in the call's stats)
//     and performs zero heap allocations on a warm context. The plan is
//     bound to its (n, record_bytes, planning-relevant params) — the
//     executor validates the binding and throws on a mismatch. Key-domain
//     and shard-layout decisions describe the *planned* input's keys;
//     reuse a plan only for inputs drawn from the same key population.
//   * serializable — serialize() emits a deterministic text form: same
//     input, params, and seed produce byte-identical bytes (the planner
//     has no hidden randomness), which is what tests/plan_test.cpp pins.
//   * inspectable — the CLI's --explain prints it; every bench sidecar
//     and semisort_stats carries the nested plan{} summary (core/params.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/params.h"
#include "shard/shard_plan.h"

namespace parsemi {

struct semisort_plan {
  // --- binding: what this plan was built for ---
  size_t n = 0;
  size_t record_bytes = 0;
  // Hash over every params knob that feeds a planning decision; the
  // executor rejects a plan whose fingerprint disagrees with the call's
  // params (core/planner.h computes it, core/executor.h checks it).
  uint64_t params_fingerprint = 0;

  // --- probe accounting (the single-probe contract) ---
  // Input scans the planner performed and records those scans read. At
  // most one pass: the unsharded route runs only the key-domain probe,
  // the sharded route only the strided shard-histogram sample — never
  // both (a budget-forced sharded call key-probes per shard, inside the
  // per-shard engine, where the shard IS the input).
  size_t probe_passes = 0;
  size_t probe_records = 0;

  // --- front-end dispatch decision (core/dispatch.h) ---
  dispatch_path dispatch = dispatch_path::general;
  bool domain_dense = false;
  uint64_t domain_min = 0;
  uint64_t domain_width = 0;  // meaningful only when domain_dense
  size_t counting_passes = 0; // 1 = one-pass counting, 2 = two radix passes

  // --- scatter decision (general pipeline only) ---
  // Decided from params alone (core/scatter.h's choose_scatter_path),
  // so the plan needs no extra scan. Forced strategies (params /
  // PARSEMI_SCATTER_PATH / random probing) land here verbatim.
  // predicted_buckets — n·p / light_bucket_samples merged light buckets,
  // capped at num_hash_ranges — is reported, not routed on.
  scatter_path scatter = scatter_path::cas;
  size_t predicted_buckets = 0;

  // --- memory budget + shard layout (shard/shard_plan.h) ---
  size_t memory_budget = 0;  // resolved bytes; 0 = unlimited
  bool sharded = false;
  shard_plan shards;         // default (num_shards == 1) when !sharded

  // --- execution environment the plan was built against ---
  int pool_workers = 0;      // worker count of the bound pool
  size_t simd_width = 0;     // compile-time vector tier (util/simd.h)

  size_t num_shards() const { return sharded ? shards.num_shards : 1; }

  // Deterministic text form: one "key value" line per field, shard layout
  // as the boundary bins of the monotone bin→shard map. Byte-identical
  // across runs for identical (input, params, seed) — the determinism
  // contract tests/plan_test.cpp holds the planner to.
  std::string serialize() const {
    std::string out;
    out.reserve(512);
    char buf[96];
    auto kv_u = [&](const char* k, unsigned long long v) {
      std::snprintf(buf, sizeof buf, "%s %llu\n", k, v);
      out += buf;
    };
    auto kv_s = [&](const char* k, const char* v) {
      out += k;
      out += ' ';
      out += v;
      out += '\n';
    };
    kv_s("semisort_plan", "v1");
    kv_u("n", n);
    kv_u("record_bytes", record_bytes);
    std::snprintf(buf, sizeof buf, "params_fingerprint %016llx\n",
                  static_cast<unsigned long long>(params_fingerprint));
    out += buf;
    kv_u("probe_passes", probe_passes);
    kv_u("probe_records", probe_records);
    kv_s("dispatch", to_string(dispatch));
    if (domain_dense) {
      std::snprintf(buf, sizeof buf, "domain dense min=%llu width=%llu\n",
                    static_cast<unsigned long long>(domain_min),
                    static_cast<unsigned long long>(domain_width));
      out += buf;
    } else {
      kv_s("domain", "rejected");
    }
    kv_u("counting_passes", counting_passes);
    kv_s("scatter", to_string(scatter));
    kv_u("predicted_buckets", predicted_buckets);
    kv_u("memory_budget", memory_budget);
    kv_u("shards", num_shards());
    if (sharded) {
      kv_u("shard_prefix_bits", static_cast<unsigned long long>(
                                    shards.prefix_bits));
      kv_u("shard_record_cap", shards.shard_record_cap);
      // The bin→shard map is monotone, so the boundary bins (first bin of
      // each shard after the zeroth) reconstruct it exactly.
      out += "shard_bounds [";
      uint32_t prev = 0;
      bool first = true;
      for (size_t b = 0; b < shards.bin_to_shard.size(); ++b) {
        if (shards.bin_to_shard[b] != prev) {
          prev = shards.bin_to_shard[b];
          if (!first) out += ',';
          first = false;
          out += std::to_string(b);
        }
      }
      out += "]\n";
    }
    kv_u("pool_workers", static_cast<unsigned long long>(pool_workers));
    kv_u("simd_width", simd_width);
    return out;
  }
};

}  // namespace parsemi
