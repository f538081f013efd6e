// Tests for Phase 4 — light-bucket compaction + per-bucket semisort,
// including the counting-by-naming variant from §3.
#include "core/local_sort.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/bucket_plan.h"
#include "core/sampler.h"
#include "core/scatter.h"
#include "hashing/hash64.h"
#include "sort/radix_sort.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// Shared context: plans are arena-backed views tied to the context they
// were built on; a static one keeps them valid for the binary's lifetime.
pipeline_context& test_ctx() {
  static pipeline_context ctx;
  return ctx;
}

struct pipeline_state {
  bucket_plan plan;
  scatter_storage<record> storage;
  std::vector<record> input;
};

pipeline_state run_through_scatter(size_t n, distribution_spec spec,
                                   const semisort_params& params) {
  auto in = generate_records(n, spec, 99);
  rng base(31);
  auto sample = sample_keys(std::span<const record>(in), record_key{},
                            params.sampling_p, base);
  radix_sort_u64(std::span<uint64_t>(sample));
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), n, params,
                                params.alpha, test_ctx());
  scatter_storage<record> storage(plan.total_slots, rng(5).next() | 1,
                                  test_ctx());
  auto result = scatter_records(std::span<const record>(in), storage, plan,
                                record_key{}, params, rng(7));
  EXPECT_EQ(result, scatter_result::ok);
  return {std::move(plan), std::move(storage), std::move(in)};
}

void check_local_sort(semisort_params params, distribution_spec spec) {
  auto st = run_through_scatter(120000, spec, params);
  std::vector<size_t> light_counts(st.plan.num_light);
  local_sort_light_buckets(st.storage, st.plan, record_key{}, params,
                           std::span<size_t>(light_counts));
  ASSERT_EQ(light_counts.size(), st.plan.num_light);

  size_t total_light = 0;
  for (size_t j = 0; j < st.plan.num_light; ++j) {
    size_t lo = st.plan.bucket_offset[st.plan.num_heavy + j];
    size_t count = light_counts[j];
    total_light += count;
    // Grouped: within the compacted prefix, equal keys are contiguous.
    std::span<const record> bucket(st.storage.slots.data() + lo, count);
    ASSERT_TRUE(testing::records_semisorted(bucket)) << "bucket " << j;
  }
  // Light record count: everything not routed to a heavy bucket.
  size_t expected_light = 0;
  for (const auto& r : st.input)
    if (st.plan.bucket_of(r.key) >= st.plan.num_heavy) expected_light++;
  EXPECT_EQ(total_light, expected_light);
}

TEST(LocalSort, StdSortVariantAllLight) {
  check_local_sort(semisort_params{},
                   {distribution_kind::uniform, 100000000});
}

TEST(LocalSort, StdSortVariantMixed) {
  check_local_sort(semisort_params{}, {distribution_kind::exponential, 1000});
}

TEST(LocalSort, CountingByNamingVariant) {
  semisort_params params;
  params.local_sort = semisort_params::local_sort_algo::counting_by_naming;
  check_local_sort(params, {distribution_kind::uniform, 100000000});
  check_local_sort(params, {distribution_kind::zipfian, 1000000});
}

TEST(LocalSort, CountingByNamingUnit) {
  // Direct unit test of the §3 naming + counting path on a single bucket.
  std::vector<record> bucket;
  rng r(3);
  for (int i = 0; i < 500; ++i)
    bucket.push_back({hash64(r.next_below(20)), static_cast<uint64_t>(i)});
  auto original = bucket;
  record_key get_key;
  internal::counting_sort_by_naming(std::span<record>(bucket), get_key);
  EXPECT_TRUE(testing::records_semisorted(bucket));
  EXPECT_TRUE(testing::records_permutation(bucket, original));
}

TEST(LocalSort, CountingByNamingIsStableWithinKey) {
  std::vector<record> bucket;
  for (int i = 0; i < 300; ++i)
    bucket.push_back({hash64(i % 3), static_cast<uint64_t>(i)});
  record_key get_key;
  internal::counting_sort_by_naming(std::span<record>(bucket), get_key);
  // Stability: payloads increase within each key group.
  for (size_t i = 1; i < bucket.size(); ++i)
    if (bucket[i].key == bucket[i - 1].key) {
      ASSERT_LT(bucket[i - 1].payload, bucket[i].payload);
    }
}

TEST(LocalSort, CountingByNamingEmptyAndSingleton) {
  std::vector<record> empty;
  record_key get_key;
  internal::counting_sort_by_naming(std::span<record>(empty), get_key);
  std::vector<record> one = {{5, 6}};
  internal::counting_sort_by_naming(std::span<record>(one), get_key);
  EXPECT_EQ(one[0], (record{5, 6}));
}

TEST(LocalSort, HeavyOnlyInputHasEmptyLightBuckets) {
  semisort_params params;
  auto st = run_through_scatter(100000, {distribution_kind::uniform, 10},
                                params);
  EXPECT_GT(st.plan.num_heavy, 0u);
  std::vector<size_t> light_counts(st.plan.num_light);
  local_sort_light_buckets(st.storage, st.plan, record_key{}, params,
                           std::span<size_t>(light_counts));
  size_t total_light = 0;
  for (size_t c : light_counts) total_light += c;
  EXPECT_EQ(total_light, 0u);  // N=10 keys all heavy at n=100000
}

}  // namespace
}  // namespace parsemi
