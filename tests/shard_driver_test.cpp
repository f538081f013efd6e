// Tier-1 tests for the out-of-core shard driver (shard/shard_driver.h):
// budget routing (param > env > unlimited), output equivalence with the
// in-memory pipeline, spill vs no-spill destinations, and the shard
// telemetry contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/semisort.h"
#include "core/sequential.h"
#include "hashing/hash64.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// Sharded and unsharded runs must produce the same groups with the same
// sizes — NOT byte-identical output: the engine packs heavy buckets first
// within each run, so group order (and within-group order) legitimately
// differs between one global run and per-shard runs. This is the same
// equivalence standard the differential suite holds the pipeline itself to.
void expect_equivalent(std::span<const record> got,
                       std::span<const record> in) {
  ASSERT_TRUE(testing::records_semisorted(got));
  ASSERT_TRUE(testing::records_permutation(got, in));
}

// A budget of (the planner's floor, twice the model's fixed cost, + the
// footprint above it / divisor): tight enough to shard, generous enough
// that each shard runs the real parallel engine.
size_t budget_above_floor(size_t n, size_t divisor) {
  internal::scratch_model model;
  size_t floor = model.budget_floor();
  return floor + (model.footprint_bytes(n, sizeof(record)) - floor) / divisor;
}

TEST(ShardDriver, BudgetedCopyMatchesUnsharded) {
  auto in = generate_records(150000, {distribution_kind::uniform, 1u << 26}, 1);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = budget_above_floor(in.size(), 6);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_GT(stats.shards, 1u);
  // Separate output storage: the partition reused `out`, nothing spilled.
  EXPECT_EQ(stats.spilled_bytes, 0u);
  EXPECT_GT(stats.shard_peak_scratch_bytes, 0u);
  EXPECT_EQ(stats.n, in.size());
}

TEST(ShardDriver, AllDistributionClassesStayCorrect) {
  for (auto spec :
       {distribution_spec{distribution_kind::uniform, 1u << 24},
        distribution_spec{distribution_kind::exponential, 300},
        distribution_spec{distribution_kind::zipfian, 20000}}) {
    auto in = generate_records(120000, spec, 7);
    std::vector<record> out(in.size());
    semisort_params params;
    semisort_stats stats;
    params.stats = &stats;
    params.memory_budget_bytes = budget_above_floor(in.size(), 5);
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    expect_equivalent(out, in);
    EXPECT_GT(stats.shards, 1u) << spec.name();
  }
}

TEST(ShardDriver, GroupSizesMatchTheSequentialReference) {
  auto in = generate_records(100000, {distribution_kind::zipfian, 3000}, 3);
  std::vector<record> out(in.size());
  semisort_params params;
  params.memory_budget_bytes = budget_above_floor(in.size(), 4);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  auto reference = semisort_seq_chained(std::span<const record>(in));
  auto got = testing::key_counts(std::span<const record>(out), record_key{});
  auto want =
      testing::key_counts(std::span<const record>(reference), record_key{});
  ASSERT_EQ(got.size(), want.size());
  for (auto& [k, cnt] : want) EXPECT_EQ(got.at(k), cnt) << k;
}

TEST(ShardDriver, UnbudgetedCallReportsOneShard) {
  auto in = generate_records(50000, {distribution_kind::uniform, 1u << 20}, 4);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_EQ(stats.spilled_bytes, 0u);
}

TEST(ShardDriver, GenerousBudgetStaysInMemory) {
  auto in = generate_records(50000, {distribution_kind::uniform, 1u << 20}, 5);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = size_t{64} << 30;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_EQ(stats.shards, 1u);
}

TEST(ShardDriver, EnvBudgetAppliesWhenParamUnset) {
  auto in = generate_records(150000, {distribution_kind::uniform, 1u << 26}, 6);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  setenv("PARSEMI_MEMORY_BUDGET", "384K", 1);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  unsetenv("PARSEMI_MEMORY_BUDGET");
  expect_equivalent(out, in);
  EXPECT_GT(stats.shards, 1u);
}

TEST(ShardDriver, ExplicitUnlimitedOverridesEnv) {
  auto in = generate_records(150000, {distribution_kind::uniform, 1u << 26}, 8);
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = SIZE_MAX;  // the shard driver's inner pin
  setenv("PARSEMI_MEMORY_BUDGET", "384K", 1);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  unsetenv("PARSEMI_MEMORY_BUDGET");
  EXPECT_EQ(stats.shards, 1u);
}

TEST(ShardDriver, SingleDominantKeyFallsBackInMemory) {
  // One key everywhere → one prefix bin → the plan cannot split; the call
  // must complete correctly in memory rather than loop or throw.
  std::vector<record> in(80000);
  for (size_t i = 0; i < in.size(); ++i) in[i] = {hash64(9), i};
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes =
      internal::scratch_model{}.footprint_bytes(in.size(), sizeof(record)) /
      8;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_EQ(stats.shards, 1u);
}

TEST(ShardDriver, VectorOverloadSpillsUnderBudget) {
  // The vector-returning overload runs in-place over its copy — under a
  // budget that is the spill path.
  auto in = generate_records(150000, {distribution_kind::exponential, 400}, 9);
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = budget_above_floor(in.size(), 6);
  auto out = semisort_hashed(std::span<const record>(in), record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_GT(stats.shards, 1u);
  EXPECT_EQ(stats.spilled_bytes, in.size() * sizeof(record));
}

TEST(ShardDriver, PathFieldsComeFromShardsThatRanTheEngine) {
  // One dominant key in a middle hash-prefix bin, plus a few hundred light
  // keys spread over every bin. At the floor's shard size the dominant
  // key's bin is a shard of its own that runs the engine; the light bins
  // on either side make shards below sequential_cutoff, which are sorted
  // without running it — the last shard among them. The call's path fields
  // must still name the path the engine shard took, not the stats
  // defaults.
  const uint64_t dominant = (uint64_t{1} << 63) | 12345;
  std::vector<record> in(100000, record{dominant, 0});
  for (size_t i = 0; i < in.size(); ++i) in[i].payload = i;
  for (size_t i = 0; i < 300; ++i)
    in[i * 331] = record{hash64(i), i};
  std::vector<record> out(in.size());
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = size_t{512} << 10;

  semisort_plan plan =
      plan_semisort_hashed(std::span<const record>(in), record_key{}, params);
  std::vector<size_t> shard_records(plan.num_shards(), 0);
  for (const record& r : in) ++shard_records[plan.shards.shard_of_key(r.key)];
  EXPECT_GE(*std::max_element(shard_records.begin(), shard_records.end()),
            params.sequential_cutoff);
  EXPECT_LT(shard_records.back(), params.sequential_cutoff);

  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  expect_equivalent(out, in);
  EXPECT_GT(stats.shards, 1u);
  EXPECT_EQ(stats.plan.scatter, scatter_path::blocked);
  EXPECT_EQ(stats.scatter_path_used, stats.plan.scatter);
  EXPECT_EQ(stats.dispatch_path_used, dispatch_path::general);
}

TEST(ShardDriver, BudgetsBelowTheFloorPlanFloorSizedShards) {
  // A budget at or below the scratch model's fixed cost is planned as if
  // it were twice that cost. Greedy grouping closes a shard only when the
  // next bin would overflow the packing target, so every two neighbouring
  // shards hold more than one target: at most ⌈2n / target⌉ shards, where
  // the parent cut one shard per prefix bin (2,851 on 10^6 records).
  for (size_t n : {size_t{120000}, size_t{1000000}}) {
    auto in = generate_records(n, {distribution_kind::exponential, n / 1000},
                               12);
    semisort_params params;
    semisort_plan probe;
    internal::init_plan_binding(probe, n, sizeof(record), params);
    internal::scratch_model model{params, probe.pool_workers, probe.scatter};
    size_t cap = model.records_for_budget(model.budget_floor(), sizeof(record));
    size_t target = cap - cap / 8;
    for (size_t budget : {size_t{1} << 10, size_t{512} << 10,
                          size_t{1} << 20}) {
      params.memory_budget_bytes = budget;
      semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                                record_key{}, params);
      EXPECT_EQ(plan.shards.shard_record_cap, cap) << n << " " << budget;
      EXPECT_GE(plan.num_shards(), 2u) << n << " " << budget;
      EXPECT_LE(plan.num_shards(), (2 * n + target - 1) / target)
          << n << " " << budget;

      std::vector<record> out(n);
      semisort_stats stats;
      params.stats = &stats;
      semisort_hashed(std::span<const record>(in), std::span<record>(out),
                      record_key{}, params);
      params.stats = nullptr;
      EXPECT_EQ(stats.shards, plan.num_shards());
      expect_equivalent(out, in);
    }
  }
}

TEST(ShardDriver, TimingsCoverDriverPhases) {
  auto in = generate_records(120000, {distribution_kind::uniform, 1u << 24}, 10);
  std::vector<record> out(in.size());
  phase_timer pt;
  semisort_params params;
  params.timings = &pt;
  params.memory_budget_bytes =
      internal::scratch_model{}.footprint_bytes(in.size(), sizeof(record)) /
      6;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  std::vector<std::string> names;
  for (auto& [name, _] : pt.phases()) names.push_back(name);
  EXPECT_NE(std::find(names.begin(), names.end(), "shard plan"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "partition"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "execute shards"),
            names.end());
}

}  // namespace
}  // namespace parsemi
