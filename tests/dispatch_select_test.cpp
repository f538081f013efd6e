// Tier-1 tests for the adaptive front-end dispatch (core/dispatch.h +
// core/key_domain.h), mirroring scatter_select_test: canned corners of the
// domain-eligibility heuristic (span just under/over the dense threshold,
// one-element input, all-equal keys) asserted directly against
// probe_key_domain, the params override asserted end-to-end through
// semisort_stats::dispatch_path_used, plus the path-conditional
// telemetry contract (key_domain_width, counting_passes) and the
// offset-only count_by_key scratch regression.
#include "core/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "core/collect_reduce.h"
#include "core/group_by.h"
#include "core/semisort.h"
#include "hashing/hash64.h"
#include "proptest.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

using strategy = semisort_params::dispatch_strategy;

std::vector<record> dense_records(size_t n, uint64_t base, uint64_t width) {
  std::vector<record> in(n);
  for (size_t i = 0; i < n; ++i) {
    // Multiplicative stride mixes the key order; the domain stays exactly
    // [base, base + width).
    in[i] = record{base + (i * 2654435761ull) % width,
                   static_cast<uint64_t>(i)};
  }
  for (uint64_t k = 0; k < width && k < n; ++k) in[k].key = base + k;
  return in;
}

std::vector<record> stable_sorted_by_key(const std::vector<record>& in) {
  std::vector<record> ref(in);
  std::stable_sort(ref.begin(), ref.end(),
                   [](const record& a, const record& b) {
                     return a.key < b.key;
                   });
  return ref;
}

semisort_stats run_semisort(const std::vector<record>& in, strategy s,
                            std::vector<record>* result = nullptr) {
  semisort_params params;
  params.dispatch_with = s;
  semisort_stats stats;
  params.stats = &stats;
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(std::span<const record>(out),
                                      std::span<const record>(in)));
  if (result != nullptr) *result = std::move(out);
  return stats;
}

TEST(DispatchSelect, DomainEligibilityCorners) {
  // Dense ⟺ span < 2n and span < 2^32 — boundaries exact on both sides.
  EXPECT_TRUE(internal::counting_domain_eligible(1000, 1999));
  EXPECT_FALSE(internal::counting_domain_eligible(1000, 2000));
  EXPECT_TRUE(internal::counting_domain_eligible(1, 0));
  EXPECT_TRUE(internal::counting_domain_eligible(1, 1));
  EXPECT_FALSE(internal::counting_domain_eligible(1, 2));
  // Width cap binds even when the density bound would pass.
  EXPECT_FALSE(
      internal::counting_domain_eligible(size_t{1} << 33, uint64_t{1} << 32));
  EXPECT_TRUE(internal::counting_domain_eligible(size_t{1} << 33,
                                                 (uint64_t{1} << 32) - 1));
}

TEST(DispatchSelect, OrderedMappingRoundTrips) {
  EXPECT_EQ(internal::from_ordered_u64<int32_t>(
                internal::to_ordered_u64<int32_t>(-5)),
            -5);
  EXPECT_EQ(internal::from_ordered_u64<uint32_t>(
                internal::to_ordered_u64<uint32_t>(7u)),
            7u);
  // Order preservation across the sign boundary.
  EXPECT_LT(internal::to_ordered_u64<int32_t>(-1),
            internal::to_ordered_u64<int32_t>(0));
  EXPECT_LT(internal::to_ordered_u64<int64_t>(-1000),
            internal::to_ordered_u64<int64_t>(-999));
}

TEST(DispatchSelect, ProbeAcceptsDenseRejectsHashed) {
  pipeline_context ctx;
  // Dense: exact min and width recovered.
  auto dense = dense_records(50000, 1000, 20000);
  auto dom = internal::probe_key_domain(
      dense.size(), [&](size_t i) { return dense[i].key; }, ctx);
  EXPECT_TRUE(dom.dense);
  EXPECT_EQ(dom.min, 1000u);
  EXPECT_EQ(dom.width, 20000u);
  // Pre-hashed keys: rejected (within the sequential prefix).
  auto hashed =
      generate_records(50000, {distribution_kind::uniform, 1000}, 17);
  dom = internal::probe_key_domain(
      hashed.size(), [&](size_t i) { return hashed[i].key; }, ctx);
  EXPECT_FALSE(dom.dense);
  // One element: width-1 domain.
  dom = internal::probe_key_domain(1, [](size_t) { return uint64_t{42}; },
                                   ctx);
  EXPECT_TRUE(dom.dense);
  EXPECT_EQ(dom.width, 1u);
  // Empty input: rejected.
  dom = internal::probe_key_domain(0, [](size_t) { return uint64_t{0}; },
                                   ctx);
  EXPECT_FALSE(dom.dense);
}

TEST(DispatchSelect, ProbeSpanThresholdIsExact) {
  // Only the extreme values matter for the span; a wide gap past the
  // sequential prefix forces the exact stage-2 scan to decide.
  pipeline_context ctx;
  size_t n = 10000;
  std::vector<uint64_t> keys(n, 5000);
  keys[n - 1] = 5000 + 2 * n - 1;  // span just under 2n — accepted
  auto dom = internal::probe_key_domain(
      n, [&](size_t i) { return keys[i]; }, ctx);
  EXPECT_TRUE(dom.dense);
  EXPECT_EQ(dom.width, 2 * n);
  keys[n - 1] = 5000 + 2 * n;  // span exactly 2n — rejected
  dom = internal::probe_key_domain(n, [&](size_t i) { return keys[i]; }, ctx);
  EXPECT_FALSE(dom.dense);
}

TEST(DispatchSelect, StatsReportChosenPathEndToEnd) {
  auto dense = dense_records(200000, 777, 50000);

  semisort_stats adaptive = run_semisort(dense, strategy::adaptive);
  EXPECT_EQ(adaptive.dispatch_path_used, dispatch_path::counting);
  EXPECT_EQ(adaptive.key_domain_width, 50000u);
  EXPECT_EQ(adaptive.counting_passes, 1u);
  EXPECT_EQ(adaptive.restarts, 0);

  // Pinned general: no probe, no width.
  semisort_stats general = run_semisort(dense, strategy::general);
  EXPECT_EQ(general.dispatch_path_used, dispatch_path::general);
  EXPECT_EQ(general.key_domain_width, 0u);
  EXPECT_EQ(general.counting_passes, 0u);
  EXPECT_GT(general.total_slots, 0u);  // the pipeline actually ran

  // Forced counting on an ineligible (hashed) domain: recorded fallback.
  auto hashed =
      generate_records(100000, {distribution_kind::uniform, 1000}, 23);
  semisort_stats fallback = run_semisort(hashed, strategy::counting);
  EXPECT_EQ(fallback.dispatch_path_used, dispatch_path::general);
  EXPECT_EQ(fallback.key_domain_width, 0u);
  EXPECT_EQ(fallback.counting_passes, 0u);
  EXPECT_GT(fallback.total_slots, 0u);
}

TEST(DispatchSelect, CountingPathIsStableAndDeterministic) {
  auto dense = dense_records(120000, 99, 30000);
  auto ref = stable_sorted_by_key(dense);

  std::vector<record> out2, out4;
  {
    proptest::scoped_workers w(2);
    run_semisort(dense, strategy::adaptive, &out2);
  }
  {
    proptest::scoped_workers w(4);
    run_semisort(dense, strategy::counting, &out4);
  }
  // Stable ⇒ exactly the stable sort, at every worker count.
  EXPECT_EQ(out2, ref);
  EXPECT_EQ(out4, ref);
}

TEST(DispatchSelect, TwoPassRadixTierHandlesWideDomains) {
  // width 100000 > 2^16 forces the two 16-bit-digit passes.
  auto dense = dense_records(150000, 5, 100000);
  std::vector<record> out;
  semisort_stats stats = run_semisort(dense, strategy::counting, &out);
  EXPECT_EQ(stats.dispatch_path_used, dispatch_path::counting);
  EXPECT_EQ(stats.counting_passes, 2u);
  EXPECT_EQ(stats.key_domain_width, 100000u);
  EXPECT_EQ(out, stable_sorted_by_key(dense));
}

TEST(DispatchSelect, AllEqualKeysTakeCountingPath) {
  std::vector<record> in(100000);
  for (size_t i = 0; i < in.size(); ++i)
    in[i] = record{0xabcdefull, static_cast<uint64_t>(i)};
  std::vector<record> out;
  semisort_stats stats = run_semisort(in, strategy::adaptive, &out);
  EXPECT_EQ(stats.dispatch_path_used, dispatch_path::counting);
  EXPECT_EQ(stats.key_domain_width, 1u);
  EXPECT_EQ(out, in);  // stable ⇒ the identity permutation
}

TEST(DispatchSelect, InplaceEntryMatchesCopyingEntry) {
  auto dense = dense_records(80000, 3000, 40000);
  std::vector<record> copied;
  run_semisort(dense, strategy::counting, &copied);
  std::vector<record> data(dense);
  semisort_params params;
  params.dispatch_with = strategy::counting;
  semisort_stats stats;
  params.stats = &stats;
  semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
  EXPECT_EQ(stats.dispatch_path_used, dispatch_path::counting);
  EXPECT_EQ(data, copied);
}

TEST(DispatchSelect, CountByKeyDefaultsToOffsetsAndShrinksScratch) {
  // The offset-only shape never materializes tags or grouped data: its
  // peak scratch is O(domain width), the tag spine's is O(n) arrays.
  size_t n = 200000;
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = (i * 31) % 1000;
  auto hash = [](uint64_t v) { return hash64(v); };

  semisort_stats general_stats;
  semisort_params general_params;
  general_params.dispatch_with = strategy::general;
  general_params.stats = &general_stats;
  auto general = count_by_key(std::span<const uint64_t>(keys), hash,
                              std::equal_to<>{}, general_params);

  semisort_stats fast_stats;
  semisort_params fast_params;  // adaptive default
  fast_params.stats = &fast_stats;
  auto fast = count_by_key(std::span<const uint64_t>(keys), hash,
                           std::equal_to<>{}, fast_params);

  EXPECT_EQ(fast_stats.dispatch_path_used, dispatch_path::offsets);
  EXPECT_EQ(fast_stats.key_domain_width, 1000u);  // gcd(31,1000)=1 ⇒ [0,1000)
  EXPECT_EQ(general_stats.dispatch_path_used, dispatch_path::general);
  ASSERT_GT(general_stats.peak_scratch_bytes, 0u);
  // The regression this PR fixes: counting must not pay the tag spine.
  EXPECT_LT(fast_stats.peak_scratch_bytes,
            general_stats.peak_scratch_bytes / 4);

  auto sorted = [](std::vector<std::pair<uint64_t, size_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(fast), sorted(general));
}

TEST(DispatchSelect, CountByKeySignedKeysRoundTrip) {
  std::vector<int32_t> keys(60000);
  for (size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<int32_t>(i % 300) - 150;  // negative range too
  semisort_stats stats;
  semisort_params params;
  params.stats = &stats;
  auto counts = count_by_key(std::span<const int32_t>(keys),
                             [](int32_t v) {
                               return hash64(static_cast<uint64_t>(v));
                             },
                             std::equal_to<>{}, params);
  EXPECT_EQ(stats.dispatch_path_used, dispatch_path::offsets);
  ASSERT_EQ(counts.size(), 300u);
  for (auto& [k, cnt] : counts) {
    EXPECT_GE(k, -150);
    EXPECT_LT(k, 150);
    EXPECT_EQ(cnt, 200u) << "key " << k;
  }
}

TEST(DispatchSelect, GroupByIndexDenseMatchesGeneral) {
  auto in = dense_records(100000, 40, 5000);
  semisort_params general_params;
  general_params.dispatch_with = strategy::general;
  auto general =
      group_by_index(std::span<const record>(in), record_key{}, general_params);

  semisort_stats stats;
  semisort_params fast_params;  // adaptive default
  fast_params.stats = &stats;
  auto fast =
      group_by_index(std::span<const record>(in), record_key{}, fast_params);
  EXPECT_EQ(stats.dispatch_path_used, dispatch_path::counting);
  EXPECT_EQ(fast.num_groups(), general.num_groups());

  // Same groups: key → index multiset agree; and the counting placement is
  // stable, so indices are increasing within each group.
  std::map<uint64_t, std::vector<size_t>> got, want;
  for (size_t g = 0; g < fast.num_groups(); ++g) {
    auto grp = fast.group(g);
    for (size_t j = 1; j < grp.size(); ++j) EXPECT_LT(grp[j - 1], grp[j]);
    std::vector<size_t> idx(grp.begin(), grp.end());
    got[in[grp[0]].key] = std::move(idx);
  }
  for (size_t g = 0; g < general.num_groups(); ++g) {
    auto grp = general.group(g);
    std::vector<size_t> idx(grp.begin(), grp.end());
    std::sort(idx.begin(), idx.end());
    want[in[grp[0]].key] = std::move(idx);
  }
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace parsemi
