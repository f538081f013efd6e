// Property-based sweeps: the semisort contract (permutation + contiguous
// groups) must hold for every distribution × size × parameter setting ×
// worker count combination, including deliberately hostile parameter
// values. These are the paper's Table 1 workloads shrunk to test scale.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/semisort.h"
#include "scheduler/scheduler.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

using Combo = std::tuple<int /*dist index*/, size_t /*n*/, int /*workers*/>;

class SemisortSweep : public ::testing::TestWithParam<Combo> {
 protected:
  void TearDown() override { set_num_workers(saved_); }
  int saved_ = num_workers();
};

TEST_P(SemisortSweep, ContractHolds) {
  auto [dist_index, n, workers] = GetParam();
  auto spec = table1_distributions()[static_cast<size_t>(dist_index)];
  set_num_workers(workers);
  auto in = generate_records(n, spec, 1000 + static_cast<uint64_t>(dist_index));
  auto out = semisort_hashed(std::span<const record>(in));
  ASSERT_TRUE(testing::records_semisorted(out))
      << spec.name() << "(" << spec.parameter << ") n=" << n;
  ASSERT_TRUE(testing::records_permutation(out, in))
      << spec.name() << "(" << spec.parameter << ") n=" << n;
}

// All 17 paper distributions at a moderate size, sequential + parallel.
INSTANTIATE_TEST_SUITE_P(
    AllDistributions, SemisortSweep,
    ::testing::Combine(::testing::Range(0, 17), ::testing::Values(60000),
                       ::testing::Values(1, 4)));

// A few distributions across a size ladder (crossing the cutoff, the
// sample-size boundaries, and non-powers of two).
INSTANTIATE_TEST_SUITE_P(
    SizeLadder, SemisortSweep,
    ::testing::Combine(::testing::Values(0, 7, 16),
                       ::testing::Values(255, 256, 257, 1000, 4097, 30011,
                                         250000),
                       ::testing::Values(3)));

struct ParamCase {
  semisort_params params;
  const char* label;
};

class SemisortParams : public ::testing::TestWithParam<int> {};

std::vector<ParamCase> param_cases() {
  std::vector<ParamCase> cases;
  {
    semisort_params p;
    cases.push_back({p, "defaults"});
  }
  {
    semisort_params p;
    p.merge_light_buckets = false;
    cases.push_back({p, "no_merging"});
  }
  {
    semisort_params p;
    p.round_to_pow2 = false;
    cases.push_back({p, "no_pow2_rounding"});
  }
  {
    semisort_params p;
    p.probing = semisort_params::probe_strategy::random;
    cases.push_back({p, "random_probing"});
  }
  {
    semisort_params p;
    p.scatter_with = semisort_params::scatter_strategy::cas;
    cases.push_back({p, "scatter_cas"});
  }
  {
    semisort_params p;
    p.scatter_with = semisort_params::scatter_strategy::blocked;
    cases.push_back({p, "scatter_blocked"});
  }
  {
    semisort_params p;
    p.local_sort = semisort_params::local_sort_algo::counting_by_naming;
    cases.push_back({p, "counting_by_naming"});
  }
  {
    semisort_params p;
    p.sampling_p = 1.0 / 4.0;
    cases.push_back({p, "dense_sampling"});
  }
  {
    semisort_params p;
    p.sampling_p = 1.0 / 64.0;
    cases.push_back({p, "sparse_sampling"});
  }
  {
    semisort_params p;
    p.delta = 2;
    cases.push_back({p, "delta_2"});
  }
  {
    semisort_params p;
    p.delta = 256;
    cases.push_back({p, "delta_256"});
  }
  {
    semisort_params p;
    p.num_hash_ranges = 1 << 4;
    cases.push_back({p, "few_ranges"});
  }
  {
    semisort_params p;
    p.num_hash_ranges = 1 << 20;
    cases.push_back({p, "many_ranges"});
  }
  {
    semisort_params p;
    p.alpha = 1.01;  // minimal slack: provokes retries if estimator is tight
    cases.push_back({p, "alpha_tight"});
  }
  {
    semisort_params p;
    p.pack_intervals = 3;
    cases.push_back({p, "few_pack_intervals"});
  }
  {
    semisort_params p;
    p.pack_intervals = 100000;  // more intervals than slots
    cases.push_back({p, "many_pack_intervals"});
  }
  {
    semisort_params p;
    p.seed = 0;
    cases.push_back({p, "seed_zero"});
  }
  {
    semisort_params p;
    p.sample_sort_with = semisort_params::sample_sorter::merge_sort;
    cases.push_back({p, "sample_merge_sort"});
  }
  {
    semisort_params p;
    p.light_bucket_samples = 16;  // the paper's literal δ merge threshold
    cases.push_back({p, "merge_to_delta_only"});
  }
  {
    semisort_params p;
    p.light_bucket_samples = 1024;
    cases.push_back({p, "huge_light_buckets"});
  }
  return cases;
}

TEST_P(SemisortParams, ContractHoldsUnderEveryKnobSetting) {
  auto c = param_cases()[static_cast<size_t>(GetParam())];
  for (auto spec : {distribution_spec{distribution_kind::uniform, 1 << 30},
                    distribution_spec{distribution_kind::exponential, 300},
                    distribution_spec{distribution_kind::zipfian, 50000}}) {
    auto in = generate_records(80000, spec, 77);
    std::vector<record> out(in.size());
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, c.params);
    ASSERT_TRUE(testing::valid_semisort(out, in))
        << c.label << " on " << spec.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Knobs, SemisortParams,
                         ::testing::Range(0, static_cast<int>(param_cases().size())));

TEST(SemisortProperty, GroupSizesMatchInputMultiplicities) {
  auto in = generate_records(150000, {distribution_kind::zipfian, 3000}, 5);
  auto out = semisort_hashed(std::span<const record>(in));
  auto expected = testing::key_counts(std::span<const record>(in), record_key{});
  size_t i = 0;
  while (i < out.size()) {
    uint64_t key = out[i].key;
    size_t run = 0;
    while (i < out.size() && out[i].key == key) {
      ++i;
      ++run;
    }
    ASSERT_EQ(run, expected.at(key)) << "key " << key;
  }
}

TEST(SemisortProperty, IdenticalResultsAtAnyWorkerCount) {
  // The output ordering is allowed to differ across worker counts (scatter
  // races change slot choices), but the *grouping* must stay valid and the
  // multiset equal. (Exact determinism across worker counts is NOT part of
  // the contract; this documents it.)
  auto in = generate_records(120000, {distribution_kind::exponential, 500}, 6);
  int saved = num_workers();
  set_num_workers(1);
  auto seq = semisort_hashed(std::span<const record>(in));
  set_num_workers(4);
  auto par = semisort_hashed(std::span<const record>(in));
  set_num_workers(saved);
  EXPECT_TRUE(testing::valid_semisort(seq, in));
  EXPECT_TRUE(testing::valid_semisort(par, in));
  EXPECT_TRUE(testing::records_permutation(par, seq));
}

TEST(SemisortProperty, RepeatedRunsDifferentSeedsAllValid) {
  auto in = generate_records(90000, {distribution_kind::zipfian, 200}, 7);
  for (uint64_t seed : {1ull, 2ull, 3ull, 999ull, ~0ull}) {
    semisort_params params;
    params.seed = seed;
    std::vector<record> out(in.size());
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    ASSERT_TRUE(testing::valid_semisort(out, in)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace parsemi
