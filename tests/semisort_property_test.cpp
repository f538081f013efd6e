// Property-based sweeps: the semisort contract (permutation + contiguous
// groups) must hold for every distribution × size × parameter setting ×
// worker count combination, including deliberately hostile parameter
// values. These are the paper's Table 1 workloads shrunk to test scale.
// The distribution sweep runs both scatter paths (the paper's CAS and the
// exact-count default) on both sides of the key-domain probe: hashed keys,
// which the probe must reject, and the raw underlying keys, which it
// accepts when their domain is small and dense.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/semisort.h"
#include "scheduler/scheduler.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// Hashed keys go through generate_records (hash64 of the underlying key);
// raw keys through generate_records_raw (the underlying key itself).
enum class key_form { hashed, raw };

using Combo = std::tuple<int /*dist index*/, size_t /*n*/, int /*workers*/,
                         scatter_path /*requested*/, key_form>;

class SemisortSweep : public ::testing::TestWithParam<Combo> {
 protected:
  void TearDown() override { set_num_workers(saved_); }
  int saved_ = num_workers();
};

TEST_P(SemisortSweep, ContractHolds) {
  auto [dist_index, n, workers, path, form] = GetParam();
  auto spec = table1_distributions()[static_cast<size_t>(dist_index)];
  set_num_workers(workers);
  uint64_t seed = 1000 + static_cast<uint64_t>(dist_index);
  auto in = form == key_form::hashed ? generate_records(n, spec, seed)
                                     : generate_records_raw(n, spec, seed);
  semisort_params params;
  params.scatter_with = path == scatter_path::cas
                            ? semisort_params::scatter_strategy::cas
                            : semisort_params::scatter_strategy::blocked;
  semisort_stats stats;
  params.stats = &stats;
  auto out = semisort_hashed(std::span<const record>(in), record_key{}, params);
  std::string label = spec.name() + "(" + std::to_string(spec.parameter) +
                      ") n=" + std::to_string(n) + " " + to_string(path) +
                      (form == key_form::hashed ? " hashed" : " raw");
  ASSERT_TRUE(testing::records_semisorted(out)) << label;
  ASSERT_TRUE(testing::records_permutation(out, in)) << label;

  if (n < params.sequential_cutoff) return;  // std::sort; no stats
  // More than one distinct hashed key spans far beyond any dense domain,
  // so the probe must reject it (one distinct key IS a dense domain of
  // width 1).
  bool distinct = std::any_of(in.begin(), in.end(), [&](const record& r) {
    return r.key != in[0].key;
  });
  if (form == key_form::hashed && distinct) {
    EXPECT_EQ(stats.dispatch_path_used, dispatch_path::general) << label;
  }
  if (stats.dispatch_path_used == dispatch_path::general) {
    EXPECT_EQ(stats.scatter_path_used, path) << label;
  }
}

// All 17 paper distributions at a moderate size, sequential + parallel,
// on both scatter paths and both key forms.
INSTANTIATE_TEST_SUITE_P(
    AllDistributions, SemisortSweep,
    ::testing::Combine(::testing::Range(0, 17), ::testing::Values(60000),
                       ::testing::Values(1, 4),
                       ::testing::Values(scatter_path::cas,
                                         scatter_path::blocked),
                       ::testing::Values(key_form::hashed, key_form::raw)));

// A few distributions across a size ladder (crossing the cutoff, the
// sample-size boundaries, and non-powers of two).
INSTANTIATE_TEST_SUITE_P(
    SizeLadder, SemisortSweep,
    ::testing::Combine(::testing::Values(0, 7, 16),
                       ::testing::Values(255, 256, 257, 1000, 4097, 30011,
                                         250000),
                       ::testing::Values(3),
                       ::testing::Values(scatter_path::cas,
                                         scatter_path::blocked),
                       ::testing::Values(key_form::hashed)));

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
