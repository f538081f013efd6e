// Tests for Phase 2 — heavy/light classification, the heavy routing table
// and bucket layout.
#include "core/bucket_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "core/scatter.h"
#include "hashing/hash64.h"
#include "util/rng.h"
#include "workloads/record.h"

namespace parsemi {
namespace {

semisort_params default_params() { return semisort_params{}; }

// Shared context: plans are arena-backed views, so they must not outlive
// the context they were built on. One static context keeps every test's
// plan valid for the binary's lifetime (the arena only grows).
pipeline_context& test_ctx() {
  static pipeline_context ctx;
  return ctx;
}

// A sorted sample with the given (key, count) runs.
std::vector<uint64_t> make_sample(
    std::vector<std::pair<uint64_t, size_t>> runs) {
  std::vector<uint64_t> s;
  for (auto& [key, count] : runs)
    for (size_t i = 0; i < count; ++i) s.push_back(key);
  std::sort(s.begin(), s.end());
  return s;
}

TEST(BucketPlan, HeavyKeysDetectedAtDelta) {
  auto params = default_params();  // delta = 16
  auto sample = make_sample({{hash64(1), 16}, {hash64(2), 15}, {hash64(3), 40}});
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 20,
                                params, params.alpha, test_ctx());
  EXPECT_EQ(plan.num_heavy, 2u);  // counts 16 and 40; 15 is light
  EXPECT_LT(plan.bucket_of(hash64(1)), plan.num_heavy);
  EXPECT_GE(plan.bucket_of(hash64(2)), plan.num_heavy);
  EXPECT_LT(plan.bucket_of(hash64(3)), plan.num_heavy);
}

TEST(BucketPlan, NoSampleMeansNoHeavyAndOneLightBucketUniverse) {
  auto params = default_params();
  std::vector<uint64_t> empty;
  auto plan = build_bucket_plan(std::span<const uint64_t>(empty), 1000, params,
                                params.alpha, test_ctx());
  EXPECT_EQ(plan.num_heavy, 0u);
  EXPECT_GE(plan.num_light, 1u);
  // Every possible key maps to a valid bucket with nonzero capacity.
  for (uint64_t key : {uint64_t{0}, ~uint64_t{0}, hash64(5)}) {
    size_t b = plan.bucket_of(key);
    ASSERT_LT(b, plan.num_buckets());
    EXPECT_GT(plan.bucket_offset[b + 1], plan.bucket_offset[b]);
  }
}

TEST(BucketPlan, EveryRangeIsMapped) {
  auto params = default_params();
  rng r(4);
  std::vector<std::pair<uint64_t, size_t>> runs;
  for (int i = 0; i < 500; ++i) runs.push_back({r.next(), 1 + r.next_below(30)});
  auto sample = make_sample(runs);
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 22,
                                params, params.alpha, test_ctx());
  size_t num_ranges = plan.range_to_light_bucket.size();
  for (size_t range = 0; range < num_ranges; ++range) {
    ASSERT_LT(plan.range_to_light_bucket[range], plan.num_light) << range;
  }
  // Range → bucket mapping must be monotone (ranges merge contiguously).
  for (size_t range = 1; range < num_ranges; ++range) {
    ASSERT_LE(plan.range_to_light_bucket[range - 1],
              plan.range_to_light_bucket[range]);
    ASSERT_LE(plan.range_to_light_bucket[range] -
                  plan.range_to_light_bucket[range - 1],
              1u);
  }
}

TEST(BucketPlan, OffsetsAreMonotoneAndCoverTotal) {
  auto params = default_params();
  auto sample = make_sample({{hash64(1), 100}, {hash64(2), 5}, {hash64(3), 20}});
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 20,
                                params, params.alpha, test_ctx());
  ASSERT_EQ(plan.bucket_offset.size(), plan.num_buckets() + 1);
  EXPECT_EQ(plan.bucket_offset.front(), 0u);
  for (size_t b = 0; b < plan.num_buckets(); ++b)
    ASSERT_LE(plan.bucket_offset[b], plan.bucket_offset[b + 1]);
  EXPECT_EQ(plan.bucket_offset.back(), plan.total_slots);
  EXPECT_EQ(plan.bucket_offset[plan.num_heavy], plan.heavy_slots_end);
}

TEST(BucketPlan, HeavyBucketCapacityCoversEstimate) {
  auto params = default_params();
  size_t n = 1 << 24;
  auto sample = make_sample({{hash64(9), 300}});
  auto plan =
      build_bucket_plan(std::span<const uint64_t>(sample), n, params, params.alpha, test_ctx());
  ASSERT_EQ(plan.num_heavy, 1u);
  size_t cap = plan.bucket_offset[1] - plan.bucket_offset[0];
  EXPECT_GE(static_cast<double>(cap),
            params.alpha * f_estimate(300, n, params.sampling_p, params.c));
}

TEST(BucketPlan, MergingReducesLightBucketCount) {
  auto params = default_params();
  rng r(7);
  // 2000 light keys scattered uniformly: without merging there are 2^16
  // buckets; with merging, ~ (#samples / δ).
  std::vector<std::pair<uint64_t, size_t>> runs;
  for (int i = 0; i < 2000; ++i) runs.push_back({r.next(), 2});
  auto sample = make_sample(runs);

  auto merged = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 22,
                                  params, params.alpha, test_ctx());
  semisort_params no_merge = params;
  no_merge.merge_light_buckets = false;
  auto unmerged = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 22,
                                    no_merge, no_merge.alpha, test_ctx());
  EXPECT_EQ(unmerged.num_light, params.num_hash_ranges);
  EXPECT_LT(merged.num_light, unmerged.num_light / 10);
  // Merging also shrinks total allocated space (the §4 point of it).
  EXPECT_LT(merged.total_slots, unmerged.total_slots);
}

TEST(BucketPlan, MergedBucketsMeetDeltaSampleThreshold) {
  auto params = default_params();
  rng r(11);
  std::vector<std::pair<uint64_t, size_t>> runs;
  for (int i = 0; i < 5000; ++i) runs.push_back({r.next(), 1});
  auto sample = make_sample(runs);
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 22,
                                params, params.alpha, test_ctx());

  // Re-derive each light bucket's sample count and check ≥ δ (all buckets;
  // the trailing bucket is folded into its predecessor when under-full).
  std::vector<size_t> bucket_samples(plan.num_light, 0);
  for (uint64_t key : sample) {
    if (plan.bucket_of(key) < plan.num_heavy) continue;
    bucket_samples[plan.range_to_light_bucket[key >> plan.range_shift]]++;
  }
  size_t total = 0;
  for (size_t j = 0; j < plan.num_light; ++j) {
    total += bucket_samples[j];
    EXPECT_GE(bucket_samples[j], params.delta) << "light bucket " << j;
  }
  EXPECT_EQ(total, sample.size());
}

TEST(BucketPlan, BucketOfRoutesHeavyAndLight) {
  auto params = default_params();
  auto sample = make_sample({{hash64(1), 50}, {hash64(2), 2}});
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 20,
                                params, params.alpha, test_ctx());
  ASSERT_EQ(plan.num_heavy, 1u);
  EXPECT_LT(plan.bucket_of(hash64(1)), plan.num_heavy);    // heavy
  EXPECT_GE(plan.bucket_of(hash64(2)), plan.num_heavy);    // light
  EXPECT_GE(plan.bucket_of(hash64(12345)), plan.num_heavy);  // unseen ⇒ light
}

TEST(BucketPlan, PowerOfTwoCapacitiesWhenEnabled) {
  auto params = default_params();
  params.round_to_pow2 = true;  // the paper's rounding (default off here)
  auto sample = make_sample({{hash64(1), 64}, {hash64(2), 17}});
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 20,
                                params, params.alpha, test_ctx());
  for (size_t b = 0; b < plan.num_buckets(); ++b) {
    size_t cap = plan.bucket_offset[b + 1] - plan.bucket_offset[b];
    ASSERT_EQ(cap & (cap - 1), 0u) << "bucket " << b;
  }
}

// A plan from `heavy` keys (δ sample hits each) and `light` keys (one hit
// each), checked key by key: heavy key j of the sorted heavy keys routes to
// bucket j, and every other key — light or never sampled — to its range's
// light bucket.
void expect_routes(const std::vector<uint64_t>& heavy,
                   const std::vector<uint64_t>& light,
                   const std::vector<uint64_t>& unseen) {
  auto params = default_params();
  std::vector<std::pair<uint64_t, size_t>> runs;
  for (uint64_t k : heavy) runs.push_back({k, params.delta});
  for (uint64_t k : light) runs.push_back({k, 1});
  auto sample = make_sample(runs);
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 22,
                                params, params.alpha, test_ctx());
  ASSERT_EQ(plan.num_heavy, heavy.size());
  std::vector<uint64_t> sorted_heavy = heavy;
  std::sort(sorted_heavy.begin(), sorted_heavy.end());
  for (size_t j = 0; j < sorted_heavy.size(); ++j)
    ASSERT_EQ(plan.bucket_of(sorted_heavy[j]), j) << "heavy key " << j;
  for (const auto* keys : {&light, &unseen}) {
    for (uint64_t k : *keys) {
      size_t range = k >> plan.range_shift;
      ASSERT_EQ(plan.bucket_of(k),
                plan.num_heavy + plan.range_to_light_bucket[range])
          << "key " << k;
    }
  }
}

TEST(BucketPlanRouting, EveryKeyShapeRoutesToItsOwnBucket) {
  const std::function<uint64_t(uint64_t)> shapes[] = {
      [](uint64_t k) { return k; },                // identity
      [](uint64_t k) { return k << 20; },          // shifted
      [](uint64_t k) { return hash64(k); }};
  for (const auto& shape : shapes) {
    std::vector<uint64_t> heavy, light, unseen;
    for (uint64_t k = 1; k <= 300; ++k) heavy.push_back(shape(k));
    for (uint64_t k = 301; k <= 2300; ++k) light.push_back(shape(k));
    for (uint64_t k = 2301; k <= 3300; ++k) unseen.push_back(shape(k));
    expect_routes(heavy, light, unseen);
  }
}

TEST(BucketPlanRouting, EmptySlotKeyValuesRouteAsHeavyAndAsLight) {
  // An empty slot is all zeros, and ~0 is the empty key of the
  // phase-concurrent table: neither value may be mistaken for, or hidden
  // by, an empty slot.
  const uint64_t zero = 0, ones = ~uint64_t{0};
  std::vector<uint64_t> others;
  for (uint64_t k = 1; k <= 40; ++k) others.push_back(hash64(k));
  std::vector<uint64_t> heavy = others;
  heavy.push_back(zero);
  heavy.push_back(ones);
  expect_routes(heavy, {hash64(1000), hash64(1001)}, {hash64(1002)});
  expect_routes(others, {zero, ones}, {});
  expect_routes(others, {}, {zero, ones});
  // A lone heavy key leaves the other slot of a 2-slot table empty.
  expect_routes({zero}, {}, {ones, hash64(5)});
  expect_routes({ones}, {}, {zero, hash64(5)});
  // Key 0 is inserted first (the keys go in sorted order); three keys
  // whose first candidate is its slot come after it and must move on
  // rather than take the slot.
  const size_t size = bucket_plan::heavy_table_size(4);
  std::vector<uint64_t> crowd = {zero};
  size_t zero_slot = bucket_plan::heavy_candidates(zero, 0, size).first;
  for (uint64_t k = 1; crowd.size() < 4; ++k)
    if (bucket_plan::heavy_candidates(k, 0, size).first == zero_slot)
      crowd.push_back(k);
  expect_routes(crowd, {}, {ones, hash64(5)});
}

TEST(BucketPlanRouting, DisplacementFailureRebuildsTheTable) {
  // Three keys whose two candidate slots in the first table are the same
  // pair cannot all fit, so the build must rebuild at double the size
  // under a new seed.
  const size_t size = bucket_plan::heavy_table_size(3);
  std::map<std::pair<size_t, size_t>, std::vector<uint64_t>> by_pair;
  std::vector<uint64_t> heavy;
  for (uint64_t k = 1; heavy.empty(); ++k) {
    auto [p1, p2] = bucket_plan::heavy_candidates(k, 0, size);
    auto& keys = by_pair[{std::min(p1, p2), std::max(p1, p2)}];
    keys.push_back(k);
    if (keys.size() == 3) heavy = keys;
  }
  auto params = default_params();
  std::vector<std::pair<uint64_t, size_t>> runs;
  for (uint64_t k : heavy) runs.push_back({k, params.delta});
  auto sample = make_sample(runs);
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), 1 << 20,
                                params, params.alpha, test_ctx());
  ASSERT_EQ(plan.num_heavy, 3u);
  EXPECT_EQ(plan.heavy_table.size(), 2 * size);
  EXPECT_NE(plan.heavy_seed, 0u);
  expect_routes(heavy, {}, {0, 4, hash64(4)});
}

TEST(BucketPlanRouting, ManyBucketsKeepTheStablePartitionLayout) {
  // 65,536 unmerged light buckets plus heavy ones: too many for the
  // kernel's 16-bit ids, so both passes classify. The layout must still be
  // the stable partition of the input by bucket_of.
  auto params = default_params();
  params.merge_light_buckets = false;
  std::vector<std::pair<uint64_t, size_t>> runs;
  for (uint64_t k = 1; k <= 64; ++k) runs.push_back({hash64(k), params.delta});
  auto sample = make_sample(runs);
  const size_t n = 200000;
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), n, params,
                                params.alpha, test_ctx());
  ASSERT_EQ(plan.num_heavy, 64u);
  ASSERT_GE(plan.num_buckets(), 65535u);

  rng r(21);
  std::vector<record> in(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key =
        r.next_below(2) == 0 ? hash64(1 + r.next_below(64)) : r.next();
    in[i] = {key, i};
  }
  pipeline_context ctx;
  std::vector<record> dest(n);
  std::span<const size_t> start =
      scatter_exact(std::span<const record>(in), std::span<record>(dest), plan,
                    record_key{}, ctx);
  std::vector<record> expect = in;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](const record& a, const record& b) {
                     return plan.bucket_of(a.key) < plan.bucket_of(b.key);
                   });
  EXPECT_TRUE(dest == expect) << "not the stable partition by bucket";
  std::vector<size_t> expect_start(plan.num_buckets() + 1, 0);
  for (const record& x : in) expect_start[plan.bucket_of(x.key) + 1]++;
  for (size_t b = 1; b < expect_start.size(); ++b)
    expect_start[b] += expect_start[b - 1];
  EXPECT_EQ(std::vector<size_t>(start.begin(), start.end()), expect_start);
}

}  // namespace
}  // namespace parsemi
