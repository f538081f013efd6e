// Tests for the in-place semisort entry point: same contract as the
// copying version, input buffer reused as output, retries still safe.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/semisort.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

void check_inplace(std::vector<record> data, semisort_params params = {}) {
  auto original = data;
  semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(data, original));
}

TEST(InplaceSemisort, EmptyAndTiny) {
  check_inplace({});
  check_inplace({{1, 2}});
  check_inplace({{1, 2}, {1, 3}, {2, 4}});
}

TEST(InplaceSemisort, BelowAndAboveCutoff) {
  check_inplace(generate_records(100, {distribution_kind::uniform, 10}, 1));
  check_inplace(generate_records(5000, {distribution_kind::uniform, 10}, 2));
}

TEST(InplaceSemisort, AllDistributionClasses) {
  check_inplace(
      generate_records(150000, {distribution_kind::uniform, 1u << 28}, 3));
  check_inplace(
      generate_records(150000, {distribution_kind::exponential, 200}, 4));
  check_inplace(
      generate_records(150000, {distribution_kind::zipfian, 10000}, 5));
}

TEST(InplaceSemisort, MatchesCopyingVersion) {
  auto in = generate_records(120000, {distribution_kind::exponential, 500}, 6);
  auto inplace_data = in;
  semisort_hashed_inplace(std::span<record>(inplace_data));
  auto copied = semisort_hashed(std::span<const record>(in));
  ASSERT_EQ(inplace_data.size(), copied.size());
  for (size_t i = 0; i < copied.size(); ++i)
    ASSERT_EQ(inplace_data[i], copied[i]) << i;
}

TEST(InplaceSemisort, RetriesDoNotCorruptInput) {
  // Force overflows on the CAS path: the retry must restart from the
  // intact input because nothing has overwritten it yet (all failures
  // happen pre-pack).
  semisort_params params;
  params.scatter_with = semisort_params::scatter_strategy::cas;
  params.alpha = 0.02;
  params.round_to_pow2 = false;
  params.max_retries = 12;
  semisort_stats stats;
  params.stats = &stats;
  auto data = generate_records(100000, {distribution_kind::uniform, 1000}, 7);
  auto original = data;
  semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(data, original));
  EXPECT_GE(stats.restarts, 1);
}

TEST(InplaceSemisort, WithContext) {
  pipeline_context ctx;
  semisort_params params;
  params.context = &ctx;
  for (int round = 0; round < 3; ++round) {
    auto data = generate_records(
        60000 + round * 9001, {distribution_kind::zipfian, 2000},
        10 + static_cast<uint64_t>(round));
    auto original = data;
    semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
    ASSERT_TRUE(testing::valid_semisort(data, original)) << round;
  }
}

TEST(InplaceSemisort, BudgetedInplaceSpillsAndStaysCorrect) {
  // In-place + budget is the spill path: the partition cannot reuse the
  // caller's buffer (it IS the input), so runs go through an mmap-backed
  // spill file and come back shard by shard.
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  auto data = generate_records(200000, {distribution_kind::uniform, 1u << 26}, 21);
  // Fixed scratch floor + a quarter of the variable footprint: shards stay
  // large enough to run the real (parallel) engine, which is what reports
  // per-shard peak scratch.
  scratch_model model;
  size_t variable =
      model.footprint_bytes(data.size(), sizeof(record)) - model.fixed_bytes;
  params.memory_budget_bytes = model.fixed_bytes + variable / 4;
  auto original = data;
  semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(data, original));
  EXPECT_GT(stats.shards, 1u);
  EXPECT_EQ(stats.spilled_bytes, data.size() * sizeof(record));
  EXPECT_GT(stats.shard_peak_scratch_bytes, 0u);
}

TEST(InplaceSemisort, InvalidParamsThrow) {
  semisort_params params;
  params.sampling_p = 2.0;
  std::vector<record> data(1000);
  EXPECT_THROW(
      semisort_hashed_inplace(std::span<record>(data), record_key{}, params),
      std::invalid_argument);
}

}  // namespace
}  // namespace parsemi
