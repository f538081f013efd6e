// Tier-1 tests for the adaptive scatter-path selection (core/scatter.h):
// adaptive is exact-count at every size (small n included), end-to-end
// runs with more than 2^15 and 2^16 buckets, the params override,
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
  // No n or bucket-count threshold: adaptive is always the exact-count path.
  EXPECT_EQ(choose_scatter_path(p), scatter_path::blocked);
  // End to end, from just above the sequential cutoff through 2^15.
  for (size_t n : {size_t{300}, size_t{1} << 10, size_t{10'000},
                   (size_t{1} << 15) - 1, size_t{1} << 15}) {
    auto in = generate_records(n, {distribution_kind::uniform, n / 4}, 25);
    semisort_params params;
    semisort_stats stats;
    params.stats = &stats;
    std::vector<record> out(n);
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_TRUE(testing::valid_semisort(out, in)) << n;
    EXPECT_EQ(stats.plan.scatter, scatter_path::blocked) << n;
    EXPECT_EQ(stats.scatter_path_used, scatter_path::blocked) << n;
  }
}

// Bucket counts above 2^15, and above 2^16 with unmerged ranges, run the
// exact path through every entry point.
TEST(ScatterSelect, BucketCountsAboveOldCeilingRouteBlocked) {
  // Merging stops at δ = 16 samples per bucket, so a full sample over
  // 2^18 ranges gives ~n/17 buckets; unmerged ranges give exactly 2^17.
  struct bucket_case {
    size_t n;
    double sampling_p;
    size_t num_hash_ranges;
    bool merge;
    size_t min_buckets;
  };
  const bucket_case kCases[] = {
      {800'000, 1.0, size_t{1} << 18, true, (size_t{1} << 15) + 1},
      {300'000, 1.0 / 16, size_t{1} << 17, false, (size_t{1} << 16) + 1},
  };
  for (const bucket_case& c : kCases) {
    auto in = generate_records(c.n, {distribution_kind::uniform, c.n}, 24);
    semisort_params params;
    params.sampling_p = c.sampling_p;
    params.light_bucket_samples = 1;
    params.num_hash_ranges = c.num_hash_ranges;
    params.merge_light_buckets = c.merge;
    semisort_stats stats;
    params.stats = &stats;

    std::vector<record> out(in.size());
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_TRUE(testing::valid_semisort(out, in));
    EXPECT_GE(stats.num_light_buckets, c.min_buckets);
    EXPECT_EQ(stats.plan.scatter, scatter_path::blocked);
    EXPECT_EQ(stats.scatter_path_used, scatter_path::blocked);
    EXPECT_EQ(stats.restarts, 0);

    std::vector<record> data = in;
    semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
    EXPECT_TRUE(testing::valid_semisort(data, in));
    EXPECT_EQ(stats.scatter_path_used, scatter_path::blocked);

    auto copy = semisort_hashed(std::span<const record>(in), record_key{},
                                params);
    EXPECT_TRUE(testing::valid_semisort(copy, in));
    EXPECT_GE(stats.num_light_buckets, c.min_buckets);
  }
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
  EXPECT_EQ(choose_scatter_path(p), scatter_path::cas);
}

TEST(ScatterSelect, ParamsOverrideBeatsHeuristic) {
  semisort_params p;
  p.scatter_with = strategy::blocked;
  EXPECT_EQ(choose_scatter_path(p), scatter_path::blocked);
  p.scatter_with = strategy::cas;
  EXPECT_EQ(choose_scatter_path(p), scatter_path::cas);
}

TEST(ScatterSelect, EnvOverrideForcesEachPath) {
  semisort_params p;
  p.scatter_with = strategy::cas;  // env must win over the params pin
  {
    scoped_env env("PARSEMI_SCATTER_PATH", "blocked");
    EXPECT_EQ(choose_scatter_path(p), scatter_path::blocked);
  }
  p.scatter_with = strategy::blocked;
  {
    scoped_env env("PARSEMI_SCATTER_PATH", "cas");
    EXPECT_EQ(choose_scatter_path(p), scatter_path::cas);
  }
  // "adaptive" (and unknown values) fall through to params.
  {
    scoped_env env("PARSEMI_SCATTER_PATH", "adaptive");
    EXPECT_EQ(choose_scatter_path(p), scatter_path::blocked);
    p.scatter_with = strategy::adaptive;
    EXPECT_EQ(choose_scatter_path(p), scatter_path::blocked);
  }
  {
    scoped_env env("PARSEMI_SCATTER_PATH", "warp-drive");
    EXPECT_EQ(choose_scatter_path(p), scatter_path::blocked);
    p.scatter_with = strategy::cas;
    EXPECT_EQ(choose_scatter_path(p), scatter_path::cas);
  }
}

TEST(ScatterSelect, EnvBufferedFallsThroughToParams) {
  // "buffered" is not a scatter path: like any unknown value it falls
  // through to the params pin, then to the adaptive default.
  scoped_env env("PARSEMI_SCATTER_PATH", "buffered");
  semisort_params p;
  p.scatter_with = strategy::cas;
  EXPECT_EQ(choose_scatter_path(p), scatter_path::cas);
  p.scatter_with = strategy::adaptive;
  EXPECT_EQ(choose_scatter_path(p), scatter_path::blocked);
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

  // The adaptive selector must choose blocked.
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
