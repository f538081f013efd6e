// pipeline_context — the per-call spine threaded through every semisort
// phase and derived operator: one arena (the memory plan) and one rng
// stream.
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

namespace parsemi {

struct pipeline_context {
  arena scratch;

  // Per-attempt stream; the Las-Vegas retry loop reseeds it from
  // (params.seed, attempt) so retries draw fresh randomness.
  rng base{0};

  // Re-entrancy depth (derived operators call semisort_hashed with the same
  // context); only the outermost frame owns high-water/alloc accounting.
  int depth = 0;
};

}  // namespace parsemi
