// pipeline_context — the per-call spine threaded through every semisort
// phase and derived operator: one arena (the memory plan), one rng stream,
// and the borrowed telemetry sinks (phase timer + stats).
//
// Ownership model: a context outlives calls, not the other way around.
// Callers that semisort repeatedly construct one pipeline_context and pass
// it via `semisort_params::context`; after warm-up every call's scratch is
// served from the arena's retained capacity — zero heap allocations. Calls
// without a context get a stack-local one and pay fresh-allocation cost,
// exactly like the pre-arena code did.
//
// Not thread-safe: one context per concurrent semisort call (concurrent
// calls each take their own).
#pragma once

#include "core/arena.h"
#include "util/rng.h"
#include "util/timer.h"

namespace parsemi {

struct semisort_stats;  // core/params.h

// Scratch-requirement estimate for one in-memory semisort run — the memory
// model the shard planner (shard/shard_plan.h) sizes shard record counts
// against. The analytic side is deliberately conservative: bucket storage is
// bounded by the slack-factor α over ~2-3 slots/record that the default
// light_bucket_samples configuration yields (params.h), plus the sample
// array, per-block scatter histograms, and the fixed light-range table. A
// driver that has already executed a shard can feed the arena's measured
// `peak_scratch_bytes` back through observe(); the estimate then takes the
// worse of the analytic bound and the observation with 25% headroom, so the
// plan adapts to the distribution actually being sorted without ever
// shrinking below what has been seen.
struct scratch_model {
  // Bucket slots per input record (α·f(s) overshoot included) and a flag
  // byte per slot (core/scatter.h's scatter_storage).
  double slots_per_record = 4.0;
  // Sample keys + indices (~2×8·p bytes/record at p = 1/16), local-sort
  // key extraction, and per-block counting scratch.
  double misc_bytes_per_record = 40.0;
  // Light-range table (num_hash_ranges counters + bucket map) and arena
  // block-rounding slack.
  size_t fixed_bytes = (size_t{1} << 16) * 64 + (size_t{8} << 20);
  // Worst observed per-record scratch (observe()); 0 until a run is seen.
  double observed_bytes_per_record = 0.0;

  double per_record_bytes(size_t record_bytes) const {
    double analytic = slots_per_record * (static_cast<double>(record_bytes) + 1.0) +
                      misc_bytes_per_record;
    double observed = observed_bytes_per_record * 1.25;
    return observed > analytic ? observed : analytic;
  }

  // Scratch (arena) bytes one in-memory run over n records needs.
  size_t estimate_bytes(size_t n, size_t record_bytes) const {
    return fixed_bytes +
           static_cast<size_t>(static_cast<double>(n) * per_record_bytes(record_bytes));
  }

  // Total footprint: resident input + scratch. The planner compares this
  // against the byte budget to decide whether a call shards at all.
  size_t footprint_bytes(size_t n, size_t record_bytes) const {
    return n * record_bytes + estimate_bytes(n, record_bytes);
  }

  // Largest record count whose footprint fits `budget`; 0 when even the
  // fixed overhead does not fit (the driver still runs — one record range
  // per shard floor applies elsewhere).
  size_t records_for_budget(size_t budget, size_t record_bytes) const {
    if (budget <= fixed_bytes) return 0;
    double per = static_cast<double>(record_bytes) + per_record_bytes(record_bytes);
    return static_cast<size_t>(static_cast<double>(budget - fixed_bytes) / per);
  }

  // Feed a measured run back into the model (monotone: keeps the worst
  // per-record observation).
  void observe(size_t n, size_t record_bytes, size_t measured_peak_bytes) {
    (void)record_bytes;
    if (n == 0) return;
    size_t variable =
        measured_peak_bytes > fixed_bytes ? measured_peak_bytes - fixed_bytes : 0;
    double per = static_cast<double>(variable) / static_cast<double>(n);
    if (per > observed_bytes_per_record) observed_bytes_per_record = per;
  }
};

struct pipeline_context {
  arena scratch;

  // Per-attempt stream; the Las-Vegas retry loop reseeds it from
  // (params.seed, attempt) so retries draw fresh randomness.
  rng base{0};

  // Borrowed from semisort_params for the duration of one call.
  phase_timer* timings = nullptr;
  semisort_stats* stats = nullptr;

  // Re-entrancy depth (derived operators call semisort_hashed with the same
  // context); only the outermost frame owns high-water/alloc accounting.
  int depth = 0;

  void record_phase(const char* name) {
    if (timings != nullptr) timings->record(name);
  }
};

}  // namespace parsemi
