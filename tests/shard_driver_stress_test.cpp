// Stress for the out-of-core shard driver: budgets swept from "everything
// spills in tiny shards" to "one shard" across all 17 Table-1 distributions
// (downscaled), copy / in-place / vector entry points, worker counts, and
// perturbed schedules. The property is equivalence with the unsharded
// pipeline: same multiset, groups contiguous, same group-size histogram.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/semisort.h"
#include "proptest.h"
#include "scheduler/sched_fuzz.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

struct shard_config {
  size_t n = 10000;
  size_t dist = 0;       // index into table1_distributions()
  int budget_step = 0;   // 0 = the floor (max sharding) … 6 = budget ≥ fit
  int entry = 0;         // 0 = copy, 1 = in-place, 2 = vector overload
  int workers = 0;
  uint64_t fuzz_seed = 0;
  uint64_t data_seed = 1;
};

// Budget ladder above the planner's floor (twice the scratch model's fixed
// cost; any smaller budget plans the same shards): the floor plus a 64th
// of the footprint above it at step 0 (max sharding, every shard spills),
// budget past the footprint at the top step (the driver must decline to
// shard). Every step below the top must shard, so n is drawn above the
// floor's shard capacity: smaller inputs fit one floor-sized shard.
size_t min_sharded_n() {
  internal::scratch_model model;
  return model.records_for_budget(model.budget_floor(), sizeof(record)) + 1;
}

size_t budget_for(const shard_config& c) {
  internal::scratch_model model;
  size_t footprint = model.footprint_bytes(c.n, sizeof(record));
  size_t floor = model.budget_floor();
  size_t divisor = size_t{64} >> std::min(c.budget_step, 6);  // 64 … 1
  if (divisor == 1) return footprint * 2;
  return floor + (footprint > floor ? (footprint - floor) / divisor : 0);
}

shard_config generate(rng& r) {
  shard_config c;
  c.n = proptest::log_uniform_u64(r, min_sharded_n(), 400000);
  c.dist = r.next_below(table1_distributions().size());
  c.budget_step = static_cast<int>(r.next_below(7));
  c.entry = static_cast<int>(r.next_below(3));
  c.workers = static_cast<int>(proptest::pick(r, {0, 0, 1, 2, 4}));
  c.fuzz_seed =
      sched_fuzz::kCompiledIn && proptest::chance(r, 0.4) ? r.next() | 1 : 0;
  c.data_seed = r.next();
  return c;
}

std::string describe(const shard_config& c) {
  auto spec = scaled_to(table1_distributions()[c.dist], c.n);
  std::ostringstream os;
  os << spec.name() << "(" << spec.parameter << ") n=" << c.n
     << " budget_step=" << c.budget_step << " budget=" << budget_for(c)
     << " entry=" << c.entry << " workers=" << c.workers
     << " fuzz=" << c.fuzz_seed << " data=" << c.data_seed;
  return os.str();
}

std::vector<shard_config> shrink(const shard_config& c) {
  std::vector<shard_config> out;
  auto with = [&](auto mutate) {
    shard_config d = c;
    mutate(d);
    out.push_back(d);
  };
  if (c.fuzz_seed != 0) with([](shard_config& d) { d.fuzz_seed = 0; });
  if (c.workers != 1) with([](shard_config& d) { d.workers = 1; });
  if (c.entry != 0) with([](shard_config& d) { d.entry = 0; });
  for (uint64_t nn : proptest::shrink_toward(c.n, min_sharded_n())) {
    with([nn](shard_config& d) { d.n = nn; });
  }
  // Toward the ends of the ladder: a mid-ladder failure usually simplifies
  // to either max sharding or the no-shard boundary.
  if (c.budget_step != 0) with([](shard_config& d) { d.budget_step = 0; });
  if (c.dist != 0) with([](shard_config& d) { d.dist = 0; });
  return out;
}

// True when every key shares its top 6 bits: one bin at the planner's
// coarsest prefix, which no plan of these inputs (at most 8 shards, so 64
// bins) can split.
bool one_prefix_bin(std::span<const record> in) {
  for (const record& r : in)
    if ((r.key ^ in[0].key) >> 58 != 0) return false;
  return true;
}

std::optional<std::string> sharded_equals_unsharded(const shard_config& c) {
  proptest::scoped_workers w(c.workers);
  sched_fuzz::scoped_enable fuzz(c.fuzz_seed);
  auto spec = scaled_to(table1_distributions()[c.dist], c.n);
  auto in = generate_records(c.n, spec, c.data_seed);

  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  params.memory_budget_bytes = budget_for(c);

  std::vector<record> got;
  switch (c.entry) {
    case 0: {
      got.resize(in.size());
      semisort_hashed(std::span<const record>(in), std::span<record>(got),
                      record_key{}, params);
      break;
    }
    case 1: {
      got = in;
      semisort_hashed_inplace(std::span<record>(got), record_key{}, params);
      break;
    }
    default:
      got = semisort_hashed(std::span<const record>(in), record_key{}, params);
      break;
  }

  if (stats.shards == 0) return "stats.shards never set";
  if (c.budget_step == 6 && stats.shards != 1) {
    return "budget above footprint still sharded";
  }
  if (c.budget_step < 6 && stats.shards < 2 && !one_prefix_bin(in)) {
    return "budget below footprint did not shard";
  }
  if (!testing::records_semisorted(got)) return "output not semisorted";
  if (!testing::records_permutation(got, in)) {
    return "output is not a permutation of the input";
  }

  // Same group-size histogram as the unsharded run of the same input.
  semisort_params unsharded;
  unsharded.memory_budget_bytes = SIZE_MAX;
  auto want_out =
      semisort_hashed(std::span<const record>(in), record_key{}, unsharded);
  auto gotc = testing::key_counts(std::span<const record>(got), record_key{});
  auto wantc =
      testing::key_counts(std::span<const record>(want_out), record_key{});
  if (gotc.size() != wantc.size()) return "distinct key count mismatch";
  for (auto& [k, cnt] : wantc) {
    auto it = gotc.find(k);
    if (it == gotc.end() || it->second != cnt) {
      return "group size mismatch vs unsharded";
    }
  }
  // Spill accounting: the in-place and vector entries must spill whenever
  // the driver actually sharded; the copy entry never spills.
  if (stats.shards > 1) {
    bool expect_spill = c.entry != 0;
    if (expect_spill && stats.spilled_bytes != in.size() * sizeof(record)) {
      return "in-place sharded run did not account its spill";
    }
    if (!expect_spill && stats.spilled_bytes != 0) {
      return "copy run spilled but had free output storage";
    }
  }
  return std::nullopt;
}

TEST(ShardDriverStress, BudgetLadderAcrossAllDistributions) {
  proptest::options opt;
  opt.trials = 40;
  opt.seed = 0x5AA05AA0ULL;
  proptest::check<shard_config>(generate, sharded_equals_unsharded, shrink,
                                describe, opt);
}

// Every Table-1 distribution, pinned tiny budget: a deterministic sweep so
// a distribution-specific regression names itself without proptest search.
TEST(ShardDriverStress, EveryTable1DistributionUnderTinyBudget) {
  auto dists = table1_distributions();
  for (size_t d = 0; d < dists.size(); ++d) {
    shard_config c;
    c.n = 200000;  // three floor-sized shards
    c.dist = d;
    c.budget_step = 1;  // floor + a 32nd of the footprint above it
    c.entry = static_cast<int>(d % 3);
    c.data_seed = 0xD15 + d;
    auto failure = sharded_equals_unsharded(c);
    EXPECT_FALSE(failure.has_value()) << describe(c) << ": " << *failure;
  }
}

// Spill I/O under perturbed schedules: the in-place entry (every shard
// round-trips through the spill file, read back serially behind a
// readahead hint) must still produce a valid grouping, and no prefetch is
// ever overlapped with compute.
TEST(ShardDriverStress, SpillUnderSchedFuzz) {
  const uint64_t kFuzzSeeds[] = {0, 0xF00D1ULL, 0xBEEF3ULL, 0x97531ULL};
  for (uint64_t fs : kFuzzSeeds) {
    if (fs != 0 && !sched_fuzz::kCompiledIn) continue;
    sched_fuzz::scoped_enable fuzz(fs);

    size_t n = 200000;  // more than one floor-sized shard
    auto spec = scaled_to(table1_distributions()[0], n);
    auto in = generate_records(n, spec, 0xA11CE + fs);

    semisort_params params;
    semisort_stats stats;
    params.stats = &stats;
    params.memory_budget_bytes =
        internal::scratch_model{}.footprint_bytes(n, sizeof(record)) / 32;

    std::vector<record> got = in;
    semisort_hashed_inplace(std::span<record>(got), record_key{}, params);

    ASSERT_GE(stats.shards, 2u) << "fuzz=" << fs << ": tiny budget must shard";
    EXPECT_EQ(stats.overlapped_prefetches, 0u) << "fuzz=" << fs;
    EXPECT_EQ(stats.spilled_bytes, n * sizeof(record)) << "fuzz=" << fs;
    EXPECT_TRUE(testing::records_semisorted(got)) << "fuzz=" << fs;
    EXPECT_TRUE(testing::records_permutation(got, in)) << "fuzz=" << fs;
  }
}

}  // namespace
}  // namespace parsemi
