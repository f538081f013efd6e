// Tier-1 tests for the adaptive scatter-path selection (core/scatter.h):
// canned (n, bucket count) corners of the heuristic, the params override,
// the PARSEMI_SCATTER_PATH environment override — all asserted both
// directly against choose_scatter_path and end-to-end through
// semisort_stats::scatter_path_used — and the per-path telemetry contract
// (probe histogram only on CAS).
#include "core/scatter.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/semisort.h"
#include "hashing/hash64.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// RAII environment override: PARSEMI_SCATTER_PATH is process-global, so
// every test that sets it must restore the unset state even on failure.
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~scoped_env() { ::unsetenv(name_); }

 private:
  const char* name_;
};

using strategy = semisort_params::scatter_strategy;

TEST(ScatterSelect, HeuristicCorners) {
  semisort_params p;  // adaptive, linear probing
  // The default pipeline shape at n = 10^7: a few thousand buckets.
  EXPECT_EQ(choose_scatter_path(10'000'000, 6500, p), scatter_path::blocked);
  // Few records per bucket still take the exact-count path.
  EXPECT_EQ(choose_scatter_path(100'000, 10'000, p), scatter_path::blocked);
  // Bucket count past the count matrix's ceiling — CAS.
  EXPECT_EQ(choose_scatter_path(10'000'000, 40'000, p), scatter_path::cas);
  // Small inputs never leave the CAS baseline.
  EXPECT_EQ(choose_scatter_path(10'000, 100, p), scatter_path::cas);
  // Both thresholds are inclusive at 2^15.
  constexpr size_t k = size_t{1} << 15;
  EXPECT_EQ(choose_scatter_path(k, k, p), scatter_path::blocked);
  EXPECT_EQ(choose_scatter_path(k - 1, 100, p), scatter_path::cas);
  EXPECT_EQ(choose_scatter_path(10'000'000, k + 1, p), scatter_path::cas);
}

// A 128-byte record: record size no longer steers the selector, so the
// default plan at n = 10^5 takes the blocked path.
struct wide_record {
  uint64_t key;
  uint64_t pad[15];
};
static_assert(sizeof(wide_record) == 128);

TEST(ScatterSelect, WideRecordDefaultsToBlocked) {
  std::vector<wide_record> in(100'000);
  for (size_t i = 0; i < in.size(); ++i) in[i] = {hash64(i % 1000), {}};
  auto key = [](const wide_record& r) { return r.key; };
  semisort_plan plan =
      plan_semisort_hashed(std::span<const wide_record>(in), key);
  EXPECT_EQ(plan.dispatch, dispatch_path::general);
  EXPECT_EQ(plan.scatter, scatter_path::blocked);
}

TEST(ScatterSelect, RandomProbingPinsCas) {
  semisort_params p;
  p.probing = semisort_params::probe_strategy::random;
  EXPECT_EQ(choose_scatter_path(10'000'000, 6500, p), scatter_path::cas);
}

TEST(ScatterSelect, ParamsOverrideBeatsHeuristic) {
  semisort_params p;
  p.scatter_with = strategy::blocked;
  EXPECT_EQ(choose_scatter_path(10'000, 100, p), scatter_path::blocked);
  p.scatter_with = strategy::cas;
  EXPECT_EQ(choose_scatter_path(10'000'000, 6500, p), scatter_path::cas);
}

TEST(ScatterSelect, EnvOverrideForcesEachPath) {
  semisort_params p;
  p.scatter_with = strategy::cas;  // env must win over the params pin
  {
    scoped_env env("PARSEMI_SCATTER_PATH", "blocked");
    EXPECT_EQ(choose_scatter_path(10'000, 100, p), scatter_path::blocked);
  }
  p.scatter_with = strategy::blocked;
  {
    scoped_env env("PARSEMI_SCATTER_PATH", "cas");
    EXPECT_EQ(choose_scatter_path(10'000'000, 6500, p), scatter_path::cas);
  }
  // "adaptive" (and unknown values) fall through to params + heuristic.
  {
    scoped_env env("PARSEMI_SCATTER_PATH", "adaptive");
    EXPECT_EQ(choose_scatter_path(10'000'000, 6500, p), scatter_path::blocked);
    p.scatter_with = strategy::adaptive;
    EXPECT_EQ(choose_scatter_path(10'000'000, 6500, p), scatter_path::blocked);
  }
  {
    scoped_env env("PARSEMI_SCATTER_PATH", "warp-drive");
    EXPECT_EQ(choose_scatter_path(10'000, 100, p), scatter_path::cas);
  }
}

TEST(ScatterSelect, EnvBufferedFallsThroughToParams) {
  // "buffered" is not a scatter path: like any unknown value it falls
  // through to the params pin, then to the heuristic.
  scoped_env env("PARSEMI_SCATTER_PATH", "buffered");
  semisort_params p;
  p.scatter_with = strategy::cas;
  EXPECT_EQ(choose_scatter_path(10'000'000, 6500, p), scatter_path::cas);
  p.scatter_with = strategy::adaptive;
  EXPECT_EQ(choose_scatter_path(10'000'000, 6500, p), scatter_path::blocked);
}

// One semisort run with the given strategy; returns stats and verifies the
// output contract so a path mix-up can't hide behind a wrong answer.
semisort_stats run_semisort(const std::vector<record>& in, strategy s) {
  semisort_params params;
  params.scatter_with = s;
  semisort_stats stats;
  params.stats = &stats;
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(std::span<const record>(out),
                                      std::span<const record>(in)));
  return stats;
}

TEST(ScatterSelect, StatsReportChosenPathEndToEnd) {
  auto in = generate_records(200'000, {distribution_kind::uniform, 2000}, 21);

  // Default pipeline at this size: small bucket count — the adaptive
  // selector must choose blocked.
  semisort_stats adaptive = run_semisort(in, strategy::adaptive);
  EXPECT_EQ(adaptive.scatter_path_used, scatter_path::blocked);

  semisort_stats cas = run_semisort(in, strategy::cas);
  EXPECT_EQ(cas.scatter_path_used, scatter_path::cas);

  semisort_stats blocked = run_semisort(in, strategy::blocked);
  EXPECT_EQ(blocked.scatter_path_used, scatter_path::blocked);
}

TEST(ScatterSelect, EnvOverrideForcesPathEndToEnd) {
  auto in = generate_records(100'000, {distribution_kind::uniform, 1000}, 22);
  scoped_env env("PARSEMI_SCATTER_PATH", "blocked");
  // Even with params pinning CAS, the env override wins.
  semisort_stats stats = run_semisort(in, strategy::cas);
  EXPECT_EQ(stats.scatter_path_used, scatter_path::blocked);
}

TEST(ScatterSelect, TelemetryIsPathConditional) {
  auto in = generate_records(150'000, {distribution_kind::zipfian, 50'000}, 23);

  // CAS: every record lands in the probe histogram.
  semisort_stats cas = run_semisort(in, strategy::cas);
  size_t probed = 0;
  for (size_t b : cas.probe_hist) probed += b;
  EXPECT_EQ(probed, cas.n);

  // Blocked: no probes.
  semisort_stats blocked = run_semisort(in, strategy::blocked);
  for (size_t b : blocked.probe_hist) EXPECT_EQ(b, 0u);
  EXPECT_EQ(blocked.max_probe, 0u);
}

}  // namespace
}  // namespace parsemi
