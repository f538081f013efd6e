// Tests for shard/shard_plan.h: the budget → shard-count sizing model,
// greedy bin grouping over synthetic histograms (balanced, skewed, empty
// bins), and the sampled planner over real record arrays.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "hashing/hash64.h"
#include "shard/shard_plan.h"
#include "workloads/distributions.h"
#include "workloads/record.h"

namespace parsemi {
namespace {

TEST(ScratchModel, EstimateScalesWithRecords) {
  scratch_model m;
  EXPECT_GT(m.estimate_bytes(0, 16), 0u);  // fixed overhead
  EXPECT_GT(m.estimate_bytes(1 << 20, 16), m.estimate_bytes(1 << 10, 16));
  EXPECT_GT(m.footprint_bytes(1 << 20, 16),
            m.estimate_bytes(1 << 20, 16));  // footprint includes the input
}

TEST(ScratchModel, RecordsForBudgetInvertsFootprint) {
  scratch_model m;
  size_t budget = 256 << 20;
  size_t r = m.records_for_budget(budget, 16);
  EXPECT_GT(r, 0u);
  EXPECT_LE(m.footprint_bytes(r, 16), budget);
  // One more record's footprint must not fit (up to rounding slack).
  EXPECT_GT(m.footprint_bytes(r + r / 100 + 2, 16), budget);
  // A budget below the fixed overhead fits nothing.
  EXPECT_EQ(m.records_for_budget(1024, 16), 0u);
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
  scratch_model model;
  auto plan = plan_shards(std::span<const record>(recs), record_key{},
                          size_t{64} << 30, model);
  EXPECT_EQ(plan.num_shards, 1u);
}

TEST(PlanShards, TightBudgetPlansManyBoundedShards) {
  auto recs = generate_records(200000, {distribution_kind::uniform, 1u << 26}, 2);
  scratch_model model;
  // An eighth of the *variable* footprint on top of the fixed scratch
  // floor: a budget below the floor degrades to best-effort max sharding
  // (cap 1), where the `est <= cap` packing invariant cannot hold.
  size_t variable =
      model.footprint_bytes(recs.size(), sizeof(record)) - model.fixed_bytes;
  size_t budget = model.fixed_bytes + variable / 8;
  auto plan = plan_shards(std::span<const record>(recs), record_key{}, budget,
                          model);
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
  std::vector<record> recs(50000, record{hash64(7), 0});
  scratch_model model;
  size_t budget = model.footprint_bytes(recs.size(), sizeof(record)) / 8;
  auto plan = plan_shards(std::span<const record>(recs), record_key{}, budget,
                          model);
  EXPECT_EQ(plan.num_shards, 1u);
}

TEST(PlanShards, DeterministicForSameInput) {
  auto recs = generate_records(100000, {distribution_kind::zipfian, 5000}, 3);
  scratch_model model;
  size_t budget = model.footprint_bytes(recs.size(), sizeof(record)) / 4;
  auto a = plan_shards(std::span<const record>(recs), record_key{}, budget,
                       model);
  auto b = plan_shards(std::span<const record>(recs), record_key{}, budget,
                       model);
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.prefix_bits, b.prefix_bits);
  EXPECT_EQ(a.bin_to_shard, b.bin_to_shard);
}

}  // namespace
}  // namespace parsemi
