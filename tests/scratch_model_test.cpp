// The shard planner's scratch model (core/planner.h) against what the
// engine really allocates, and the budget the planner sizes shards against
// (shard/shard_plan.h), on exponential, uniform and zipfian keys at
// n = 10^5, 10^6 and 4·10^6, on both scatter paths, at 1 and 4 workers:
//
//   * coverage — one unbudgeted copying call's stats.peak_scratch_bytes is
//     at most the model's estimate, and the estimate at most 3× it: a model
//     below the footprint breaks the budget, one far above it cuts more
//     shards than the budget asks for;
//   * the budget holds above the floor — on the in-place route the largest
//     shard's records plus the shards' peak scratch, on the copying route
//     the shards' peak scratch (which includes each shard's staging
//     buffer), stay within the budget — and is spent: the plan cuts at
//     most twice the shards the measured footprint needs.
//
// The budget bounds requested scratch, the arena's high-water mark. The
// arena's capacity, which is what stays resident, grows geometrically and
// sits up to 3.6× above that mark (EXPERIMENTS.md); each case records
// both and asserts the capacity stays within 4× of the mark.
//
// Sanitized builds run these calls 5-20× slower, so they skip the
// 4·10^6-record cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/semisort.h"
#include "proptest.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

using footprint_case = std::tuple<distribution_kind, size_t, bool, int>;

// Keys shaped like the benchmark's: exponential λ = n/1000, uniform and
// zipfian over n values, all pre-hashed.
std::vector<record> input_for(distribution_kind kind, size_t n) {
  uint64_t param = kind == distribution_kind::exponential ? n / 1000 : n;
  return generate_records(n, {kind, param}, 5);
}

semisort_params params_for(bool cas) {
  semisort_params params;
  params.scatter_with = cas ? semisort_params::scatter_strategy::cas
                            : semisort_params::scatter_strategy::adaptive;
  return params;
}

// The model the planner builds for this call shape.
internal::scratch_model model_for(const semisort_params& params,
                                  int workers, bool cas) {
  return {params, workers, cas ? scatter_path::cas : scatter_path::blocked};
}

// An O(n) check for outputs too large to sort twice: the multiset checksum
// matches the input's and the output has one key run per distinct key, so
// every group is contiguous.
uint64_t multiset_sum(std::span<const record> recs) {
  uint64_t sum = 0;
  for (const record& r : recs) sum += hash64(r.key ^ hash64(r.payload));
  return sum;
}
size_t key_runs(std::span<const record> recs) {
  size_t runs = 0;
  for (size_t i = 0; i < recs.size(); ++i)
    runs += i == 0 || recs[i].key != recs[i - 1].key;
  return runs;
}
size_t distinct_keys(std::span<const record> recs) {
  std::vector<uint64_t> keys(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) keys[i] = recs[i].key;
  std::sort(keys.begin(), keys.end());
  return static_cast<size_t>(std::unique(keys.begin(), keys.end()) -
                             keys.begin());
}

// True when a sanitized build should skip a case of n records.
bool too_large_for_sanitizers(size_t n) {
  return proptest::kSanitizedBuild && n > 1000000;
}

std::string case_name(const ::testing::TestParamInfo<footprint_case>& info) {
  auto [kind, n, cas, workers] = info.param;
  return std::string(distribution_spec{kind, 1}.name()) + "_" +
         std::to_string(n) + (cas ? "_cas_" : "_exact_") +
         std::to_string(workers) + "w";
}

class ScratchModelCase : public ::testing::TestWithParam<footprint_case> {};

TEST_P(ScratchModelCase, EstimateCoversTheMeasuredFootprint) {
  auto [kind, n, cas, workers] = GetParam();
  if (too_large_for_sanitizers(n)) GTEST_SKIP() << "sanitized build";
  proptest::scoped_workers w(workers);
  auto in = input_for(kind, n);
  std::vector<record> out(n);
  semisort_params params = params_for(cas);
  semisort_stats stats;
  params.stats = &stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  ASSERT_EQ(stats.scatter_path_used,
            cas ? scatter_path::cas : scatter_path::blocked);
  size_t measured = stats.peak_scratch_bytes;
  size_t estimate =
      model_for(params, workers, cas).estimate_bytes(n, sizeof(record));
  EXPECT_LE(measured, estimate);
  EXPECT_LE(estimate, 3 * measured);
}

TEST_P(ScratchModelCase, BudgetHoldsAboveTheFloor) {
  auto [kind, n, cas, workers] = GetParam();
  if (too_large_for_sanitizers(n)) GTEST_SKIP() << "sanitized build";
  proptest::scoped_workers w(workers);
  auto in = input_for(kind, n);
  std::span<const record> view(in);
  const uint64_t want_sum = multiset_sum(view);
  const size_t want_runs = distinct_keys(view);

  semisort_params params = params_for(cas);
  semisort_stats stats;
  params.stats = &stats;
  std::vector<record> out(n);
  semisort_hashed(view, std::span<record>(out), record_key{}, params);
  size_t measured = n * sizeof(record) + stats.peak_scratch_bytes;

  internal::scratch_model model = model_for(params, workers, cas);
  size_t floor = model.budget_floor();
  size_t budget =
      floor + (model.footprint_bytes(n, sizeof(record)) - floor) / 3;
  params.memory_budget_bytes = budget;
  semisort_plan plan = plan_semisort_hashed(view, record_key{}, params);
  ASSERT_GE(plan.num_shards(), 2u) << "budget " << budget;
  EXPECT_LE(plan.num_shards(), 2 * ((measured + budget - 1) / budget))
      << "measured footprint " << measured << ", budget " << budget;
  std::vector<size_t> shard_records(plan.num_shards(), 0);
  for (const record& r : in) ++shard_records[plan.shards.shard_of_key(r.key)];
  size_t largest =
      *std::max_element(shard_records.begin(), shard_records.end());

  params.plan = &plan;

  // In place: the shard's input is its spill pages.
  std::vector<record> data = in;
  semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
  EXPECT_EQ(stats.shards, plan.num_shards());
  EXPECT_GT(stats.spilled_bytes, 0u);
  EXPECT_LE(largest * sizeof(record) + stats.shard_peak_scratch_bytes, budget)
      << "largest shard " << largest << " records, peak scratch "
      << stats.shard_peak_scratch_bytes;
  RecordProperty("inplace_resident_per_mille_of_budget",
                 static_cast<int>((largest * sizeof(record) +
                                   stats.scratch_capacity_bytes) *
                                  1000 / budget));
  EXPECT_LE(stats.scratch_capacity_bytes, 4 * stats.shard_peak_scratch_bytes);
  EXPECT_EQ(multiset_sum(data), want_sum);
  EXPECT_EQ(key_runs(data), want_runs);

  // Copying: each shard stages through an arena buffer, part of its scratch.
  semisort_hashed(view, std::span<record>(out), record_key{}, params);
  EXPECT_EQ(stats.spilled_bytes, 0u);
  EXPECT_LE(stats.shard_peak_scratch_bytes, budget);
  RecordProperty("copy_capacity_per_mille_of_budget",
                 static_cast<int>(stats.scratch_capacity_bytes * 1000 /
                                  budget));
  EXPECT_LE(stats.scratch_capacity_bytes, 4 * stats.shard_peak_scratch_bytes);
  EXPECT_EQ(multiset_sum(out), want_sum);
  EXPECT_EQ(key_runs(out), want_runs);
}

INSTANTIATE_TEST_SUITE_P(
    KeysSizesPathsWorkers, ScratchModelCase,
    ::testing::Combine(::testing::Values(distribution_kind::exponential,
                                         distribution_kind::uniform,
                                         distribution_kind::zipfian),
                       ::testing::Values(size_t{100000}, size_t{1000000},
                                         size_t{4000000}),
                       ::testing::Bool(), ::testing::Values(1, 4)),
    case_name);

}  // namespace
}  // namespace parsemi
