// Tests for Phase 5 — the interval pack of the heavy region plus the
// per-bucket copy of the light region.
#include "core/pack_phase.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/bucket_plan.h"
#include "core/local_sort.h"
#include "core/sampler.h"
#include "core/scatter.h"
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

// Runs phases 1-4 and returns everything pack_output needs.
struct staged {
  bucket_plan plan;
  scatter_storage<record> storage;
  std::vector<size_t> light_counts;
  std::vector<record> input;
};

staged stage_through_phase4(size_t n, distribution_spec spec,
                            semisort_params params) {
  auto in = generate_records(n, spec, 7);
  rng base(3);
  auto sample = sample_keys(std::span<const record>(in), record_key{},
                            params.sampling_p, base);
  radix_sort_u64(std::span<uint64_t>(sample));
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), n, params,
                                params.alpha, test_ctx());
  scatter_storage<record> storage(plan.total_slots, rng(5).next() | 1,
                                  test_ctx());
  EXPECT_EQ(scatter_records(std::span<const record>(in), storage, plan,
                            record_key{}, params, rng(9)),
            scatter_result::ok);
  std::vector<size_t> light_counts(plan.num_light);
  local_sort_light_buckets(storage, plan, record_key{}, params,
                           std::span<size_t>(light_counts));
  return {std::move(plan), std::move(storage), std::move(light_counts),
          std::move(in)};
}

void check_pack(size_t n, distribution_spec spec, semisort_params params) {
  auto st = stage_through_phase4(n, spec, params);
  std::vector<record> out(n);
  size_t written = pack_output(st.storage, st.plan,
                               std::span<const size_t>(st.light_counts),
                               std::span<record>(out), params, test_ctx());
  ASSERT_EQ(written, n);
  EXPECT_TRUE(testing::valid_semisort(out, st.input));
}

TEST(PackPhase, MixedHeavyLight) {
  check_pack(120000, {distribution_kind::exponential, 400}, {});
}

TEST(PackPhase, AllLight) {
  check_pack(120000, {distribution_kind::uniform, 1u << 30}, {});
}

TEST(PackPhase, AllHeavy) {
  check_pack(120000, {distribution_kind::uniform, 5}, {});
}

TEST(PackPhase, SingleInterval) {
  semisort_params params;
  params.pack_intervals = 1;
  check_pack(80000, {distribution_kind::exponential, 200}, params);
}

TEST(PackPhase, MoreIntervalsThanSlots) {
  semisort_params params;
  params.pack_intervals = 1u << 30;
  check_pack(50000, {distribution_kind::zipfian, 1000}, params);
}

TEST(PackPhase, HeavyRecordsKeepBucketContiguity) {
  // Interval boundaries cut across bucket boundaries; packed output must
  // still keep each heavy key's records contiguous.
  semisort_params params;
  params.pack_intervals = 17;  // deliberately unaligned with bucket sizes
  auto st = stage_through_phase4(100000, {distribution_kind::uniform, 20},
                                 params);
  ASSERT_GT(st.plan.num_heavy, 0u);
  std::vector<record> out(100000);
  size_t written = pack_output(st.storage, st.plan,
                               std::span<const size_t>(st.light_counts),
                               std::span<record>(out), params, test_ctx());
  ASSERT_EQ(written, out.size());
  EXPECT_TRUE(testing::records_semisorted(out));
}

TEST(PackPhase, EmptyLightRegion) {
  // All-heavy input: the light buckets exist but are empty, and the light
  // copy loop must be a no-op that still lands the totals correctly.
  auto st = stage_through_phase4(60000, {distribution_kind::uniform, 2}, {});
  size_t light_total = 0;
  for (size_t c : st.light_counts) light_total += c;
  ASSERT_EQ(light_total, 0u);
  std::vector<record> out(60000);
  EXPECT_EQ(pack_output(st.storage, st.plan,
                        std::span<const size_t>(st.light_counts),
                        std::span<record>(out), semisort_params{}, test_ctx()),
            60000u);
  EXPECT_TRUE(testing::valid_semisort(out, st.input));
}

}  // namespace
}  // namespace parsemi
