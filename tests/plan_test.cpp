// The plan layer's contracts (core/exec_plan.h, core/planner.h,
// core/executor.h):
//
//   * determinism — the same (input, params, seed) plans to byte-identical
//     serialize() output, including the sharded layout;
//   * the single-probe contract — a plan never pays more than one probe
//     pass, and a pinned-general plan pays none;
//   * reuse — a cached plan executes with zero probe passes and produces
//     an equivalent grouping via the same paths;
//   * binding — a plan is rejected (std::invalid_argument) for a call with
//     a different n or different planning-relevant params, and a counting
//     plan reused on keys outside its domain falls back to the general
//     pipeline;
//   * overrides — forced scatter/dispatch strategies land in the plan
//     verbatim and the execution follows them.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/exec_plan.h"
#include "core/semisort.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

constexpr size_t kN = 120000;

std::vector<record> hashed_input(uint64_t seed = 42) {
  return generate_records(kN, {distribution_kind::exponential, 1000}, seed);
}

TEST(PlanTest, SerializationIsDeterministic) {
  auto in = hashed_input();
  semisort_params params;
  semisort_plan a = plan_semisort_hashed(std::span<const record>(in),
                                         record_key{}, params);
  semisort_plan b = plan_semisort_hashed(std::span<const record>(in),
                                         record_key{}, params);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_FALSE(a.serialize().empty());
  EXPECT_NE(a.serialize().find("semisort_plan v1"), std::string::npos);
}

TEST(PlanTest, ShardedSerializationIsDeterministic) {
  auto in = hashed_input(7);
  semisort_params params;
  params.memory_budget_bytes = 512 << 10;  // far below the footprint
  semisort_plan a = plan_semisort_hashed(std::span<const record>(in),
                                         record_key{}, params);
  semisort_plan b = plan_semisort_hashed(std::span<const record>(in),
                                         record_key{}, params);
  ASSERT_TRUE(a.sharded);
  EXPECT_GE(a.num_shards(), 2u);
  EXPECT_EQ(a.serialize(), b.serialize());
  // The shard layout is part of the serialized form.
  EXPECT_NE(a.serialize().find("shard_bounds ["), std::string::npos);
}

TEST(PlanTest, AtMostOneProbePass) {
  auto in = hashed_input();
  semisort_params params;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{}, params);
  EXPECT_LE(plan.probe_passes, 1u);
  // Hashed 64-bit keys: the adaptive strategy probes once and rejects.
  EXPECT_EQ(plan.probe_passes, 1u);
  EXPECT_FALSE(plan.domain_dense);
  EXPECT_EQ(plan.dispatch, dispatch_path::general);
  EXPECT_GT(plan.predicted_buckets, 0u);
}

TEST(PlanTest, PinnedGeneralPlansWithoutProbing) {
  auto in = hashed_input();
  semisort_params params;
  params.dispatch_with = semisort_params::dispatch_strategy::general;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{}, params);
  EXPECT_EQ(plan.probe_passes, 0u);
  EXPECT_EQ(plan.probe_records, 0u);
  EXPECT_EQ(plan.dispatch, dispatch_path::general);
}

TEST(PlanTest, ShardedRoutePaysOnlyTheShardSample) {
  auto in = hashed_input();
  semisort_params params;
  params.memory_budget_bytes = 512 << 10;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{}, params);
  ASSERT_TRUE(plan.sharded);
  EXPECT_EQ(plan.probe_passes, 1u);
  // The key-domain probe is skipped on this route; the probe accounting
  // reflects the strided shard sample only.
  EXPECT_FALSE(plan.domain_dense);
  EXPECT_LE(plan.probe_records, size_t{1} << 16);
}

TEST(PlanTest, ShardedPlanNamesTheShardsScatterPath) {
  // The sharded route records the scatter path its shards run: blocked by
  // default, cas when pinned. The executed shards report the same path.
  // The budget sits above the planner's floor, at a third of the footprint
  // above it, so it leaves a few shards of thousands of records each and
  // every shard runs the engine rather than the small-input sort.
  auto in = hashed_input();
  for (auto [strategy, path] :
       {std::pair{semisort_params::scatter_strategy::adaptive,
                  scatter_path::blocked},
        std::pair{semisort_params::scatter_strategy::cas,
                  scatter_path::cas}}) {
    semisort_params params;
    params.scatter_with = strategy;
    semisort_plan unbudgeted = plan_semisort_hashed(
        std::span<const record>(in), record_key{}, params);
    internal::scratch_model model{params, unbudgeted.pool_workers,
                                  unbudgeted.scatter};
    size_t floor = model.budget_floor();
    params.memory_budget_bytes =
        floor + (model.footprint_bytes(kN, sizeof(record)) - floor) / 3;
    semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                              record_key{}, params);
    ASSERT_TRUE(plan.sharded);
    ASSERT_GE(plan.num_shards(), 2u);
    EXPECT_EQ(plan.scatter, path);

    std::vector<record> out(kN);
    semisort_stats stats;
    params.stats = &stats;
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_GE(stats.shards, 2u);
    EXPECT_EQ(stats.plan.scatter, path);
    EXPECT_EQ(stats.scatter_path_used, path);
    EXPECT_TRUE(testing::valid_semisort(out, in));
  }
}

TEST(PlanTest, DenseRawKeysPlanTheCountingPath) {
  auto raw = generate_records_raw(kN, {distribution_kind::uniform, 50000}, 5);
  semisort_params params;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(raw),
                                            record_key{}, params);
  EXPECT_EQ(plan.probe_passes, 1u);
  EXPECT_EQ(plan.probe_records, kN);  // full-input probe on acceptance
  ASSERT_TRUE(plan.domain_dense);
  EXPECT_EQ(plan.dispatch, dispatch_path::counting);
  EXPECT_EQ(plan.counting_passes, 1u);  // width 50000 fits the one-pass tier
  EXPECT_LE(plan.domain_width, 50000u);
}

TEST(PlanTest, ForcedScatterPathLandsInThePlan) {
  auto in = hashed_input();
  for (auto [strategy, path] :
       {std::pair{semisort_params::scatter_strategy::blocked,
                  scatter_path::blocked},
        std::pair{semisort_params::scatter_strategy::cas,
                  scatter_path::cas}}) {
    semisort_params params;
    params.scatter_with = strategy;
    semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                              record_key{}, params);
    EXPECT_EQ(plan.scatter, path);
    // The execution follows the pinned path.
    std::vector<record> out(kN);
    semisort_stats stats;
    params.stats = &stats;
    params.plan = &plan;
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_EQ(stats.scatter_path_used, path);
    EXPECT_TRUE(testing::valid_semisort(out, in));
  }
}

// Records with keys lo, lo+1, …, lo+width-1 repeated to length kN.
std::vector<record> dense_keys(uint64_t lo, uint64_t width) {
  std::vector<record> v(kN);
  for (size_t i = 0; i < kN; ++i) v[i] = {lo + i % width, i};
  return v;
}

TEST(PlanTest, CountingPlanReusedOutsideItsDomainFallsBack) {
  // One-pass (width 1000) and two-pass radix (width 100000) plans, each
  // reused on a same-n input shifted above and below the planned domain.
  // The count pass must catch the stray keys before any record moves.
  for (uint64_t width : {uint64_t{1000}, uint64_t{100000}}) {
    auto planned = dense_keys(1'000'000, width);
    semisort_plan plan = plan_semisort_hashed(
        std::span<const record>(planned), record_key{});
    ASSERT_EQ(plan.dispatch, dispatch_path::counting);
    ASSERT_EQ(plan.counting_passes, width <= 65536 ? 1u : 2u);
    for (uint64_t lo : {uint64_t{1'000'000} + 5 * width, uint64_t{0}}) {
      auto in = dense_keys(lo, width);
      semisort_stats stats;
      semisort_params params;
      params.stats = &stats;
      params.plan = &plan;
      std::vector<record> out(kN);
      semisort_hashed(std::span<const record>(in), std::span<record>(out),
                      record_key{}, params);
      EXPECT_EQ(stats.dispatch_path_used, dispatch_path::general);
      EXPECT_EQ(stats.key_domain_width, 0u);
      EXPECT_GT(stats.total_slots, 0u);  // the general pipeline ran
      EXPECT_TRUE(testing::valid_semisort(out, in));
      // In place: the rejected counting pass must leave the data intact.
      std::vector<record> data(in);
      semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
      EXPECT_EQ(stats.dispatch_path_used, dispatch_path::general);
      EXPECT_TRUE(testing::valid_semisort(data, in));
    }
  }
}

TEST(PlanTest, ReuseSkipsProbesAndExecutesTheSamePaths) {
  auto in = hashed_input();
  std::vector<record> out_fresh(kN), out_reused(kN);

  semisort_stats fresh_stats;
  semisort_params params;
  params.stats = &fresh_stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out_fresh),
                  record_key{}, params);
  EXPECT_FALSE(fresh_stats.plan.reused);
  EXPECT_EQ(fresh_stats.plan.probe_passes, 1u);

  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{});
  semisort_stats reused_stats;
  semisort_params reuse_params;
  reuse_params.stats = &reused_stats;
  reuse_params.plan = &plan;
  semisort_hashed(std::span<const record>(in), std::span<record>(out_reused),
                  record_key{}, reuse_params);
  EXPECT_TRUE(reused_stats.plan.reused);
  EXPECT_EQ(reused_stats.plan.probe_passes, 0u);
  EXPECT_EQ(reused_stats.plan.probe_records, 0u);

  // Equivalent execution: same paths, both valid groupings of the input.
  EXPECT_EQ(fresh_stats.scatter_path_used, reused_stats.scatter_path_used);
  EXPECT_EQ(fresh_stats.dispatch_path_used, reused_stats.dispatch_path_used);
  EXPECT_TRUE(testing::valid_semisort(out_fresh, in));
  EXPECT_TRUE(testing::valid_semisort(out_reused, in));
}

TEST(PlanTest, ReusedShardedPlanExecutes) {
  auto in = hashed_input(11);
  semisort_params params;
  params.memory_budget_bytes = 512 << 10;
  semisort_plan plan = plan_semisort_hashed(std::span<const record>(in),
                                            record_key{}, params);
  ASSERT_TRUE(plan.sharded);
  ASSERT_GE(plan.num_shards(), 2u);

  std::vector<record> out(kN);
  semisort_stats stats;
  params.stats = &stats;
  params.plan = &plan;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(stats.plan.reused);
  EXPECT_EQ(stats.plan.probe_passes, 0u);
  EXPECT_EQ(stats.shards, plan.num_shards());
  EXPECT_TRUE(testing::valid_semisort(out, in));
}

TEST(PlanTest, MismatchedBindingThrows) {
  auto in = hashed_input();
  semisort_plan plan =
      plan_semisort_hashed(std::span<const record>(in), record_key{});
  std::vector<record> out(kN - 1);
  semisort_params params;
  params.plan = &plan;
  // Different n than the plan was built for.
  EXPECT_THROW(
      semisort_hashed(std::span<const record>(in).subspan(0, kN - 1),
                      std::span<record>(out), record_key{}, params),
      std::invalid_argument);
}

TEST(PlanTest, MismatchedParamsFingerprintThrows) {
  auto in = hashed_input();
  semisort_plan plan =
      plan_semisort_hashed(std::span<const record>(in), record_key{});
  std::vector<record> out(kN);
  semisort_params params;
  params.seed = 999;  // planning-relevant: a serialized plan pins one run
  params.plan = &plan;
  EXPECT_THROW(semisort_hashed(std::span<const record>(in),
                               std::span<record>(out), record_key{}, params),
               std::invalid_argument);
}

TEST(PlanTest, PlanSummaryReachesStatsOnEveryRoute) {
  // Unsharded fresh call: the stats' nested plan{} mirrors the decision.
  auto in = hashed_input();
  std::vector<record> out(kN);
  semisort_stats stats;
  semisort_params params;
  params.stats = &stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_EQ(stats.plan.dispatch, dispatch_path::general);
  EXPECT_EQ(stats.plan.scatter, stats.scatter_path_used);
  EXPECT_EQ(stats.plan.shards, 1u);
  EXPECT_EQ(stats.plan.pool_workers, num_workers());

  // Sharded call: plan{} survives the driver's stats aggregation.
  params.memory_budget_bytes = 512 << 10;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_GE(stats.plan.shards, 2u);
  EXPECT_EQ(stats.plan.shards, stats.shards);
  EXPECT_EQ(stats.plan.probe_passes, 1u);
}

}  // namespace
}  // namespace parsemi
