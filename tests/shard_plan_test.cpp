// Tests for shard/shard_plan.h and the planner's scratch model
// (core/planner.h): the budget → shard-count sizing model,
// greedy bin grouping over synthetic histograms (balanced, skewed, empty
// bins), and the sampled planner over real record arrays.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/planner.h"
#include "hashing/hash64.h"
#include "shard/shard_plan.h"
#include "workloads/distributions.h"
#include "workloads/record.h"

namespace parsemi {
namespace {

TEST(ScratchModel, EstimateScalesWithRecords) {
  internal::scratch_model m;
  EXPECT_GT(m.estimate_bytes(0, 16), 0u);  // fixed overhead
  EXPECT_GT(m.estimate_bytes(1 << 20, 16), m.estimate_bytes(1 << 10, 16));
  EXPECT_GT(m.footprint_bytes(1 << 20, 16),
            m.estimate_bytes(1 << 20, 16));  // footprint includes the input
}

TEST(ScratchModel, RecordsForBudgetInvertsFootprint) {
  internal::scratch_model m;
  size_t budget = 256 << 20;
  size_t r = m.records_for_budget(budget, 16);
  EXPECT_GT(r, 0u);
  EXPECT_LE(m.footprint_bytes(r, 16), budget);
  // One more record's footprint must not fit (up to rounding slack).
  EXPECT_GT(m.footprint_bytes(r + r / 100 + 2, 16), budget);
  // A budget below the fixed overhead fits nothing.
  EXPECT_EQ(m.records_for_budget(1024, 16), 0u);
}

TEST(ScratchModel, BudgetBelowTheFloorGetsTheFloorsCapacity) {
  // Any budget at or below twice the model's fixed cost gets the floor's
  // shard capacity: no one-record capacity, no thousands of shards.
  internal::scratch_model model;
  size_t floor = model.budget_floor();
  size_t cap = model.records_for_budget(floor, sizeof(record));
  EXPECT_GT(cap, 0u);
  for (size_t budget : {size_t{0}, size_t{1} << 10, model.fixed_bytes(),
                        floor - 1, floor})
    EXPECT_EQ(model.shard_capacity(budget, sizeof(record)), cap) << budget;
  EXPECT_GT(model.shard_capacity(2 * floor, sizeof(record)), cap);
  auto recs = generate_records(400000, {distribution_kind::uniform, 1u << 26}, 4);
  auto plan = plan_shards(std::span<const record>(recs), record_key{}, cap);
  EXPECT_EQ(plan.shard_record_cap, cap);
  EXPECT_GE(plan.num_shards, 2u);
}

TEST(ChoosePrefixBits, ClampsToSensibleRange) {
  EXPECT_EQ(internal::choose_prefix_bits(1), 6);     // floor: 64 bins
  EXPECT_EQ(internal::choose_prefix_bits(8), 6);     // 8*8 = 64 bins
  EXPECT_EQ(internal::choose_prefix_bits(16), 7);    // 128 bins
  EXPECT_EQ(internal::choose_prefix_bits(100000), 12);  // ceiling: 4096 bins
}

TEST(GroupBins, BalancedHistogramSplitsEvenly) {
  std::vector<size_t> bins(64, 100);  // 6400 records
  size_t num_shards = 0;
  std::vector<size_t> est;
  auto map = internal::group_bins(std::span<const size_t>(bins), 1000,
                                  &num_shards, &est);
  EXPECT_EQ(num_shards, 7u);  // 10 bins of 100 per shard → 6×1000 + 1×400
  ASSERT_EQ(est.size(), num_shards);
  size_t total = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    EXPECT_LE(est[s], 1000u) << s;
    total += est[s];
  }
  EXPECT_EQ(total, 6400u);
  // Monotone non-decreasing map covering every shard id exactly once.
  ASSERT_EQ(map.size(), bins.size());
  EXPECT_EQ(map.front(), 0u);
  EXPECT_EQ(map.back(), num_shards - 1);
  for (size_t b = 1; b < map.size(); ++b) {
    EXPECT_GE(map[b], map[b - 1]);
    EXPECT_LE(map[b] - map[b - 1], 1u);
  }
}

TEST(GroupBins, OversizedSingleBinGetsItsOwnShard) {
  // Bin 2 alone exceeds the cap: it must become its own shard rather than
  // merging with a neighbour (and rather than looping).
  std::vector<size_t> bins = {50, 50, 5000, 50, 50};
  size_t num_shards = 0;
  std::vector<size_t> est;
  auto map = internal::group_bins(std::span<const size_t>(bins), 200,
                                  &num_shards, &est);
  EXPECT_EQ(num_shards, 3u);
  EXPECT_EQ(map[0], map[1]);       // {50, 50}
  EXPECT_EQ(map[2], map[1] + 1);   // {5000} alone
  EXPECT_EQ(map[3], map[2] + 1);   // {50, 50}
  EXPECT_EQ(map[4], map[3]);
  EXPECT_EQ(est[1], 5000u);
}

TEST(GroupBins, HugeCapYieldsOneShard) {
  std::vector<size_t> bins(128, 10);
  size_t num_shards = 0;
  std::vector<size_t> est;
  auto map = internal::group_bins(std::span<const size_t>(bins), 1 << 20,
                                  &num_shards, &est);
  EXPECT_EQ(num_shards, 1u);
  for (uint32_t s : map) EXPECT_EQ(s, 0u);
  EXPECT_EQ(est[0], 1280u);
}

TEST(GroupBins, EmptyBinsFoldIntoNeighbours) {
  std::vector<size_t> bins = {0, 0, 300, 0, 0, 300, 0};
  size_t num_shards = 0;
  std::vector<size_t> est;
  internal::group_bins(std::span<const size_t>(bins), 400, &num_shards, &est);
  EXPECT_EQ(num_shards, 2u);
  EXPECT_EQ(est[0], 300u);
  EXPECT_EQ(est[1], 300u);
}

TEST(PlanShards, HugeBudgetPlansSingleShard) {
  auto recs = generate_records(20000, {distribution_kind::uniform, 1u << 20}, 1);
  internal::scratch_model model;
  auto plan =
      plan_shards(std::span<const record>(recs), record_key{},
                  model.shard_capacity(size_t{64} << 30, sizeof(record)));
  EXPECT_EQ(plan.num_shards, 1u);
}

TEST(PlanShards, TightBudgetPlansManyBoundedShards) {
  auto recs = generate_records(600000, {distribution_kind::uniform, 1u << 26}, 2);
  internal::scratch_model model;
  // An eighth of the footprint above the planner's floor (twice the
  // model's fixed cost), on top of the floor: a budget below it is planned
  // as the floor, whose shards hold tens of thousands of records, so the
  // input must be large enough to need more than four of them.
  size_t floor = model.budget_floor();
  size_t budget =
      floor + (model.footprint_bytes(recs.size(), sizeof(record)) - floor) / 8;
  auto plan = plan_shards(std::span<const record>(recs), record_key{},
                          model.shard_capacity(budget, sizeof(record)));
  EXPECT_GT(plan.num_shards, 4u);
  EXPECT_GT(plan.prefix_bits, 0);
  EXPECT_GT(plan.shard_record_cap, 0u);
  // Hashed keys are uniform: every planned shard's estimate stays under the
  // capacity the budget allows.
  for (size_t est : plan.est_records) EXPECT_LE(est, plan.shard_record_cap);
  // shard_of_key agrees with the bin map and is monotone in the prefix.
  ASSERT_EQ(plan.bin_to_shard.size(), size_t{1} << plan.prefix_bits);
  EXPECT_EQ(plan.shard_of_key(0), plan.bin_to_shard.front());
  EXPECT_EQ(plan.shard_of_key(~uint64_t{0}), plan.bin_to_shard.back());
}

TEST(PlanShards, SingleDominantKeyCannotSplit) {
  // Every record carries the same key → one prefix bin holds everything →
  // the plan degenerates to one shard (the driver then runs in-memory).
  // The input is larger than the floor's shard capacity, so one shard is
  // forced by the key, not by a budget that fits everything.
  std::vector<record> recs(200000, record{hash64(7), 0});
  internal::scratch_model model;
  size_t budget = model.footprint_bytes(recs.size(), sizeof(record)) / 8;
  ASSERT_LT(model.records_for_budget(model.budget_floor(), sizeof(record)),
            recs.size());
  auto plan = plan_shards(std::span<const record>(recs), record_key{},
                          model.shard_capacity(budget, sizeof(record)));
  EXPECT_EQ(plan.num_shards, 1u);
}

TEST(PlanShards, DeterministicForSameInput) {
  auto recs = generate_records(100000, {distribution_kind::zipfian, 5000}, 3);
  internal::scratch_model model;
  size_t budget = model.footprint_bytes(recs.size(), sizeof(record)) / 4;
  size_t cap = model.shard_capacity(budget, sizeof(record));
  auto a = plan_shards(std::span<const record>(recs), record_key{}, cap);
  auto b = plan_shards(std::span<const record>(recs), record_key{}, cap);
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.prefix_bits, b.prefix_bits);
  EXPECT_EQ(a.bin_to_shard, b.bin_to_shard);
}

}  // namespace
}  // namespace parsemi
