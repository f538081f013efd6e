// Tuning parameters and instrumentation for the parallel semisort.
//
// Defaults are the paper's (§4): sampling probability p = 1/16, heavy
// threshold δ = 16, 2^16 light-key hash ranges, bucket sizes 1.1·f(s) with
// c = 1.25, adjacent-light-bucket merging on. Two documented deviations:
// capacities are not rounded up to powers of two (see round_to_pow2), and
// light buckets merge to a fixed sample occupancy rather than bare δ (see
// light_bucket_samples); both knobs restore the paper's literal choices.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/pipeline_context.h"
#include "util/timer.h"

namespace parsemi {

class worker_pool;  // scheduler/scheduler.h
struct semisort_plan;  // core/exec_plan.h

// The Phase 3 placement strategy a run actually executed (core/scatter.h):
//   cas      — one CAS + probe per record (the paper's §4 scatter)
//   blocked  — exact-count distribution: per-block counting lays buckets
//              out from exact totals, contention-free placement (zero
//              atomics, no pack; Dong/Wu et al. 2023 style)
enum class scatter_path : uint8_t { cas, blocked };

inline const char* to_string(scatter_path p) {
  switch (p) {
    case scatter_path::cas: return "cas";
    case scatter_path::blocked: return "blocked";
  }
  return "?";
}

// The front-end path a call actually executed (core/dispatch.h) — selected
// *above* the pipeline from the key domain and the requested result shape:
//   general  — the paper's full hash–sample–scatter Las-Vegas pipeline
//   counting — stable counting placement over a small dense integer key
//              domain: one blocked pass for widths ≤ 2^16, two 16-bit-digit
//              LSB passes up to 2^32 (Dong et al. 2024 style). Deterministic
//              and stable at every worker count.
//   offsets  — offset-only result shape: counts/boundaries are computed
//              without ever moving a record (count_by_key's histogram path).
enum class dispatch_path : uint8_t { general, counting, offsets };

inline const char* to_string(dispatch_path p) {
  switch (p) {
    case dispatch_path::general: return "general";
    case dispatch_path::counting: return "counting";
    case dispatch_path::offsets: return "offsets";
  }
  return "?";
}

// Summary of the execution plan a call ran under (core/exec_plan.h),
// surfaced verbatim in semisort_stats and every bench sidecar's nested
// plan{} object. The flat legacy fields (scatter_path_used,
// dispatch_path_used, key_domain_width, shards) stay populated by the
// execution itself; this block records what was *decided* and what the
// decision cost (probe passes), which is how the single-probe contract
// and plan reuse are observable.
struct plan_summary {
  bool reused = false;        // came in via semisort_params::plan
  size_t probe_passes = 0;    // input scans the planner performed (≤ 1)
  size_t probe_records = 0;   // records those scans read
  dispatch_path dispatch = dispatch_path::general;
  scatter_path scatter = scatter_path::cas;
  size_t key_domain_width = 0;
  size_t predicted_buckets = 0;
  size_t shards = 1;
  size_t memory_budget = 0;   // resolved bytes; 0 = unlimited
  int pool_workers = 0;
};

// Counters filled by a semisort run when requested — benches use these for
// the "% heavy records" columns of Table 1 / Figure 1 and for memory
// accounting in the ablations.
struct semisort_stats {
  size_t n = 0;
  size_t sample_size = 0;
  size_t num_heavy_keys = 0;
  size_t num_light_buckets = 0;   // after merging
  size_t heavy_records = 0;       // records routed to heavy buckets
  size_t total_slots = 0;         // allocated bucket storage (slots)
  size_t heavy_slots = 0;
  int restarts = 0;               // Las-Vegas retries (overflow etc.)

  // Memory plan of the call (core/arena.h): high-water scratch footprint,
  // bump allocations served, and the arena capacity afterwards. With a
  // reused pipeline_context, arena_allocs stays flat and heap traffic is
  // zero in steady state (tests/alloc_regression_test.cpp).
  size_t peak_scratch_bytes = 0;
  size_t arena_allocs = 0;
  size_t scratch_capacity_bytes = 0;

  // --- execution-model telemetry (scheduler/scheduler.h) ---
  // fork_joins this call ran sequentially because the executing thread was
  // foreign to a multi-worker pool — the old silent fallback, now counted.
  // Zero whenever the call runs inside its pool (pool member,
  // params.pool routing, or worker_pool::run).
  uint64_t sequential_fallbacks = 0;

  // --- scatter engine telemetry (successful attempt only) ---
  // Which Phase 3 path the run executed (adaptive selection or override).
  scatter_path scatter_path_used = scatter_path::cas;

  // Scatter probe-length histogram — CAS path only: bin b counts records
  // whose claim took a probe distance d with bit_width(d) == b, i.e.
  // bin 0 ⇔ first slot free, bin 1 ⇔ d = 1, bin 2 ⇔ d ∈ {2,3}, …; the last
  // bin also absorbs anything longer. Filled only when stats are requested
  // (one relaxed atomic increment per record); all-zero on the blocked
  // path, which never probes.
  static constexpr size_t kProbeBins = 16;
  std::array<size_t, kProbeBins> probe_hist{};
  size_t max_probe = 0;  // longest observed probe distance

  // --- front-end dispatch telemetry (core/dispatch.h) ---
  // Which front-end path the call executed. `general` both when the general
  // pipeline was selected outright and when a forced counting request fell
  // back because the key domain was ineligible — the fallback is visible
  // as general here plus key_domain_width == 0.
  dispatch_path dispatch_path_used = dispatch_path::general;
  // Dense key-domain width (max − min + 1) when the probe accepted; 0 when
  // the probe rejected or never ran (dispatch pinned to general).
  size_t key_domain_width = 0;
  // Placement passes the counting path ran: 1 = one-pass counting
  // (width ≤ 2^16), 2 = two 16-bit-digit radix passes; 0 off the counting
  // paths.
  size_t counting_passes = 0;

  // --- out-of-core telemetry (shard/shard_driver.h) ---
  // Shards the call executed: 1 for the in-memory path, > 1 when the memory
  // budget routed the call through the shard driver. Bytes written to
  // mmap-backed spill runs (0 when the partition could reuse the caller's
  // output storage), and the largest per-shard engine scratch high-water —
  // the number to compare against the budget's scratch share.
  size_t shards = 0;
  size_t spilled_bytes = 0;
  size_t shard_peak_scratch_bytes = 0;
  // Always 0: the driver reads spill runs serially behind a WILLNEED hint
  // and overlaps no prefetch with compute. Kept declared because
  // benchmark/parsemi_bench.cpp reads it.
  size_t overlapped_prefetches = 0;

  // --- the execution plan this call ran under (core/exec_plan.h) ---
  plan_summary plan;

  double heavy_fraction() const {
    return n == 0 ? 0.0 : static_cast<double>(heavy_records) / static_cast<double>(n);
  }
  // Space blow-up of the intermediate bucket array relative to the input.
  double slots_per_record() const {
    return n == 0 ? 0.0 : static_cast<double>(total_slots) / static_cast<double>(n);
  }
  double mean_probe_len() const {
    // Bin midpoints approximate the mean; exact for bins 0 and 1.
    double records = 0, sum = 0;
    for (size_t b = 0; b < kProbeBins; ++b) {
      double lo = b == 0 ? 0.0 : static_cast<double>(size_t{1} << (b - 1));
      double hi = b == 0 ? 0.0 : static_cast<double>((size_t{1} << b) - 1);
      records += static_cast<double>(probe_hist[b]);
      sum += static_cast<double>(probe_hist[b]) * (lo + hi) / 2.0;
    }
    return records == 0 ? 0.0 : sum / records;
  }
};

struct semisort_params {
  // --- the paper's constants (§4) ---
  double sampling_p = 1.0 / 16.0;   // each record sampled with prob. p
  size_t delta = 16;                // heavy ⟺ ≥ δ occurrences in the sample
  size_t num_hash_ranges = 1 << 16; // light-key partition of the hash space
  double c = 1.25;                  // Chernoff constant in f(s)  (§3.1)
  double alpha = 1.1;               // slack factor on f(s)
  // The paper rounds bucket capacities up to a power of two; our probing
  // wraps with a compare (no mask), so rounding buys nothing and costs up
  // to 2x memory exactly for borderline-heavy keys (s ≈ δ), where α·f(s)
  // already overshoots the true count several-fold. Default off; the knob
  // remains for the ablation benches.
  bool round_to_pow2 = false;
  bool merge_light_buckets = true;  // §4 Phase 2 optimization (merge
                                    // neighbouring ranges into one bucket)
  // Sample-count target per merged light bucket. The paper merges to "at
  // least δ" records in S, but its default configuration (2^16 ranges at
  // n = 10^8, p = 1/16) already yields ≈ 95 samples per range, which is
  // what keeps the relative overshoot of f(s) small (f(s)·p/s ≈ 2). We use
  // that effective occupancy as the explicit merge target so the allocation
  // stays ~2-3 slots/record at every input size, not just at n = 10^8.
  size_t light_bucket_samples = 96;

  // --- implementation policy knobs (ablations) ---
  enum class local_sort_algo : uint8_t {
    std_sort,           // §4 Phase 4 final choice
    counting_by_naming  // §3 step 7c theoretical path (naming + counting sort)
  };
  local_sort_algo local_sort = local_sort_algo::std_sort;

  enum class sample_sorter : uint8_t {
    radix,      // §4 Phase 1's choice (PBBS-style top-down radix sort)
    merge_sort  // Cole-style parallel mergesort (the §3 theoretical choice)
  };
  sample_sorter sample_sort_with = sample_sorter::radix;

  enum class probe_strategy : uint8_t {
    linear,   // §4 Phase 3: CAS then next location (cache-friendly)
    random    // §3 step 6b: fresh random location per round
  };
  probe_strategy probing = probe_strategy::linear;

  // Phase 3 placement engine. `adaptive` takes the exact-count `blocked`
  // path (core/scatter.h's choose_scatter_path); `cas` pins the paper's
  // CAS scatter as the reference ablation, `blocked` pins exact-count.
  // The PARSEMI_SCATTER_PATH environment variable (cas / blocked /
  // adaptive) overrides this knob without recompiling. `probing` applies to the CAS path only;
  // requesting random probing pins the adaptive choice to CAS so the
  // ablation measures what it names.
  enum class scatter_strategy : uint8_t { adaptive, cas, blocked };
  scatter_strategy scatter_with = scatter_strategy::adaptive;

  // Front-end dispatch *above* the pipeline (core/dispatch.h). `adaptive`
  // probes the key domain and takes the stable counting path when the keys
  // occupy a small dense integer domain, the general pipeline otherwise;
  // `general` pins the paper's pipeline (no probe); `counting` forces the
  // integer fast path, falling back to general — recorded in stats as
  // dispatch_path_used == general with key_domain_width == 0 — when the
  // domain is ineligible. The PARSEMI_DISPATCH_PATH environment variable
  // (general / counting / adaptive) overrides this knob without
  // recompiling, mirroring PARSEMI_SCATTER_PATH.
  enum class dispatch_strategy : uint8_t { adaptive, general, counting };
  dispatch_strategy dispatch_with = dispatch_strategy::adaptive;

  size_t pack_intervals = 1000;     // §4 Phase 5 heavy-region pack intervals

  // --- robustness / bookkeeping ---
  uint64_t seed = 42;               // randomness for sampling & scatter
  int max_retries = 4;              // restarts (α doubles each time)
  size_t sequential_cutoff = 256;   // below this, just std::sort by key
  // Byte ceiling on input + scratch held in memory at once. 0 = unset: the
  // PARSEMI_MEMORY_BUDGET environment variable applies if present, else
  // unlimited. SIZE_MAX = explicitly unlimited (ignores the env var too —
  // the shard driver pins its inner per-shard calls with this so sharding
  // never recurses). When the projected footprint (n·record_bytes plus the
  // scratch model's estimate, core/pipeline_context.h) exceeds the budget,
  // the call routes through the shard driver (shard/shard_driver.h).
  size_t memory_budget_bytes = 0;
  phase_timer* timings = nullptr;   // optional per-phase breakdown
  semisort_stats* stats = nullptr;  // optional counters
  // Cached execution plan (core/exec_plan.h): when set, the call skips
  // every planner probe and executes this plan as-is — zero re-probe and
  // zero heap allocations on a warm context. The executor validates the
  // plan's (n, record_bytes, params fingerprint) binding and throws
  // std::invalid_argument on a mismatch; the key-domain and shard-layout
  // decisions inside the plan describe the *planned* input's keys, so
  // reuse it only for inputs drawn from the same key population. Build one
  // with plan_semisort_hashed (core/semisort.h).
  const semisort_plan* plan = nullptr;
  pipeline_context* context = nullptr;  // optional reusable scratch + rng
                                    // spine (core/pipeline_context.h);
                                    // reuse across calls for zero-alloc
                                    // steady state. Not thread-safe across
                                    // concurrent calls.
  worker_pool* pool = nullptr;      // executor override: a caller foreign
                                    // to this pool has the whole call
                                    // shipped through worker_pool::run (so
                                    // it runs with full pool parallelism
                                    // instead of the counted sequential
                                    // fallback); pool members run inline.
                                    // nullptr = the calling thread's pool.

  // Rejects configurations the algorithm cannot run with. Called by the
  // public entry points; throws std::invalid_argument naming the offending
  // field.
  void validate() const;
};

inline void semisort_params::validate() const {
  auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("semisort_params: ") + what);
  };
  if (!(sampling_p > 0.0) || sampling_p > 1.0)
    reject("sampling_p must be in (0, 1]");
  if (delta < 1) reject("delta must be >= 1");
  if (!(c > 0.0)) reject("c must be positive");
  if (!(alpha > 0.0)) reject("alpha must be positive");
  if (num_hash_ranges < 2) reject("num_hash_ranges must be >= 2");
  if (light_bucket_samples < 1) reject("light_bucket_samples must be >= 1");
  if (pack_intervals < 1) reject("pack_intervals must be >= 1");
  if (max_retries < 0) reject("max_retries must be >= 0");
}

}  // namespace parsemi
