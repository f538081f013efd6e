// Property-based sweeps: the semisort contract (permutation + contiguous
// groups) must hold for every distribution × size × parameter setting ×
// worker count combination, including deliberately hostile parameter
// values. These are the paper's Table 1 workloads shrunk to test scale.
// The distribution sweep runs both scatter paths (the paper's CAS and the
// exact-count default) on both sides of the key-domain probe: hashed keys,
// which the probe must reject, and the raw underlying keys, which it
// accepts when their domain is small and dense. The hostile-hash sweep
// runs every public entry point under the identity, a shifted and a
// constant hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/collect_reduce.h"
#include "core/group_by.h"
#include "core/mapreduce.h"
#include "core/relational.h"
#include "core/semisort.h"
#include "scheduler/scheduler.h"
#include "test_helpers.h"
#include "util/rng.h"
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

// ---- hostile hashes ------------------------------------------------------
//
// Every public entry point under three hashes a caller may hand in: the
// identity (std::hash<uint64_t> in libstdc++), a shift that zeroes the low
// 20 bits, and a constant. The entry points that take a HashFn must still
// group by the key itself, since a constant hash makes every key collide.
// The ones that take pre-hashed keys get h(k) as the key and must group by
// it. Each result is checked against a std::map reference.

enum class hostile { identity, shifted, constant };

struct hostile_hash {
  hostile kind;
  uint64_t operator()(uint64_t k) const {
    if (kind == hostile::identity) return k;
    if (kind == hostile::shifted) return k << 20;
    return 0x5eed;
  }
};

// n keys over `distinct` random 40-bit values; every fourth record takes
// one of four heavy keys.
std::vector<uint64_t> hostile_keys(size_t n, size_t distinct, uint64_t seed) {
  rng r(seed);
  std::vector<uint64_t> pool(distinct);
  for (uint64_t& k : pool) k = r.next() >> 24;
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i % 4 == 0 ? pool[i / 4 % 4] : pool[r.next_below(distinct)];
  }
  return keys;
}

using key_map = std::map<uint64_t, uint64_t>;

// True when each key of `want` fills exactly one contiguous run of `keys`
// with want[key] entries, and `keys` holds no other key.
bool groups_match(const std::vector<uint64_t>& keys, const key_map& want) {
  key_map seen;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] != keys[i - 1] && seen.count(keys[i]) != 0)
      return false;
    seen[keys[i]]++;
  }
  return seen == want;
}

// (key, value) results: one row per key, equal to `want`.
template <typename Rows>
bool rows_match(const Rows& rows, const key_map& want) {
  key_map got;
  for (const auto& [k, v] : rows) got[k] += v;
  return rows.size() == want.size() && got == want;
}

using HostileCombo = std::tuple<hostile, int /*workers*/>;

class HostileHash : public ::testing::TestWithParam<HostileCombo> {
 protected:
  static constexpr size_t kN = 20'000;

  void SetUp() override { set_num_workers(std::get<1>(GetParam())); }
  void TearDown() override { set_num_workers(saved_); }

  hostile_hash hash() const { return {std::get<0>(GetParam())}; }

  std::vector<record> records(uint64_t seed) const {
    std::vector<uint64_t> keys = hostile_keys(kN, kN / 8, seed);
    std::vector<record> in(kN);
    for (size_t i = 0; i < kN; ++i) in[i] = {keys[i], i};
    return in;
  }

  // Key → record count, keyed by `key_of`.
  template <typename KeyOf>
  static key_map counts(const std::vector<record>& in, KeyOf key_of) {
    key_map m;
    for (const record& r : in) m[key_of(r)]++;
    return m;
  }

  template <typename KeyOf>
  static std::vector<uint64_t> key_column(std::span<const record> out,
                                          KeyOf key_of) {
    std::vector<uint64_t> keys;
    for (const record& r : out) keys.push_back(key_of(r));
    return keys;
  }

  int saved_ = num_workers();
};

TEST_P(HostileHash, SemisortAndGroupByGroupByTheKey) {
  auto in = records(1);
  auto key_of = [](const record& r) { return r.key; };
  key_map want = counts(in, key_of);

  auto sorted = semisort(std::span<const record>(in), key_of, hash());
  EXPECT_TRUE(testing::records_permutation(sorted, in));
  EXPECT_TRUE(groups_match(key_column(sorted, key_of), want));

  auto g = group_by(std::span<const record>(in), key_of, hash());
  EXPECT_TRUE(testing::records_permutation(g.records, in));
  EXPECT_TRUE(groups_match(key_column(g.records, key_of), want));
  ASSERT_EQ(g.num_groups(), want.size());
  for (size_t k = 0; k < g.num_groups(); ++k) {
    EXPECT_EQ(g.group(k).size(), want.at(g.group(k)[0].key)) << "group " << k;
  }
}

TEST_P(HostileHash, ReducersCountEveryKey) {
  auto in = records(2);
  std::vector<uint64_t> keys;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  key_map sums;
  for (const record& r : in) {
    keys.push_back(r.key);
    pairs.push_back({r.key, r.payload});
    sums[r.key] += r.payload;
  }
  key_map want = counts(in, [](const record& r) { return r.key; });

  EXPECT_TRUE(rows_match(
      count_by_key(std::span<const uint64_t>(keys), hash()), want));
  EXPECT_TRUE(rows_match(
      collect_reduce(std::span<const std::pair<uint64_t, uint64_t>>(pairs),
                     hash(), [](uint64_t a, uint64_t b) { return a + b; }),
      sums));
  EXPECT_TRUE(rows_match(
      map_reduce<uint64_t, uint64_t, uint64_t, uint64_t>(
          std::span<const uint64_t>(keys),
          [](uint64_t k, auto emit) { emit(k, uint64_t{1}); }, hash(),
          [](uint64_t acc, const uint64_t& v) { return acc + v; },
          uint64_t{0}),
      want));
}

TEST_P(HostileHash, HashedKeyEntriesGroupByTheHashedKey) {
  auto in = records(3);
  hostile_hash h = hash();
  auto get_key = [h](const record& r) { return h(r.key); };
  key_map want = counts(in, get_key);

  std::vector<record> out(kN);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  get_key);
  EXPECT_TRUE(testing::records_permutation(out, in));
  EXPECT_TRUE(groups_match(key_column(out, get_key), want));

  std::vector<record> data = in;
  semisort_hashed_inplace(std::span<record>(data), get_key);
  EXPECT_TRUE(testing::records_permutation(data, in));
  EXPECT_TRUE(groups_match(key_column(data, get_key), want));

  grouped_indices gi = group_by_index(std::span<const record>(in), get_key);
  std::vector<size_t> order = gi.order;
  std::sort(order.begin(), order.end());
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(order[i], i);
  std::vector<uint64_t> index_keys;
  for (size_t i : gi.order) index_keys.push_back(get_key(in[i]));
  EXPECT_TRUE(groups_match(index_keys, want));
  EXPECT_EQ(gi.group_start.size(), want.size() + 1);

  key_map sums;
  for (const record& r : in) sums[get_key(r)] += r.payload;
  EXPECT_TRUE(rows_match(
      group_aggregate(
          std::span<const record>(in), get_key,
          [](const record& r) { return r.payload; }, uint64_t{0},
          [](uint64_t acc, uint64_t v) { return acc + v; }),
      sums));
}

TEST_P(HostileHash, EquiJoinMatchesNestedLoopReference) {
  // Both sides draw from one key pool. Small sides: under the constant
  // hash every pair joins.
  std::vector<uint64_t> lk = hostile_keys(2'000, 250, 4);
  std::vector<uint64_t> rk = hostile_keys(300, 250, 4);
  std::vector<record> left(lk.size()), right(rk.size());
  for (size_t i = 0; i < lk.size(); ++i) left[i] = {lk[i], i};
  for (size_t i = 0; i < rk.size(); ++i) right[i] = {rk[i], 1'000'000 + i};
  hostile_hash h = hash();
  auto get_key = [h](const record& r) { return h(r.key); };
  auto value = [](const record& r) { return r.payload; };

  std::map<uint64_t, std::vector<uint64_t>> right_by_key;
  for (const record& r : right) right_by_key[get_key(r)].push_back(r.payload);
  std::vector<join_row> want;
  for (const record& l : left) {
    auto it = right_by_key.find(get_key(l));
    if (it == right_by_key.end()) continue;
    for (uint64_t rv : it->second) want.push_back({get_key(l), l.payload, rv});
  }

  std::vector<join_row> got =
      equi_join(std::span<const record>(left), std::span<const record>(right),
                get_key, value, get_key, value);
  auto row_less = [](const join_row& a, const join_row& b) {
    return std::tie(a.key, a.left_value, a.right_value) <
           std::tie(b.key, b.left_value, b.right_value);
  };
  std::vector<uint64_t> got_keys;
  for (const join_row& r : got) got_keys.push_back(r.key);
  key_map want_rows;
  for (const join_row& r : want) want_rows[r.key]++;
  EXPECT_TRUE(groups_match(got_keys, want_rows));
  std::sort(got.begin(), got.end(), row_less);
  std::sort(want.begin(), want.end(), row_less);
  EXPECT_EQ(got, want);
}

// A key with equality only and at most 2,000 distinct values: under the
// constant hash every key collides, and the mixed run is regrouped by
// repair_hash_collisions' first-seen class scan.
TEST_P(HostileHash, EqualityOnlyKeysGroupByTheKey) {
  std::vector<uint64_t> ids = hostile_keys(kN, 2'000, 5);
  struct eq_record {
    testing::eq_only_key key;
    uint64_t payload;
  };
  std::vector<eq_record> in(kN);
  for (size_t i = 0; i < kN; ++i) in[i] = {{ids[i]}, i};
  hostile_hash h = hash();
  auto key_of = [](const eq_record& r) { return r.key; };
  auto hash_of = [h](const testing::eq_only_key& k) { return h(k.v); };
  key_map want;
  for (uint64_t id : ids) want[id]++;

  auto out = semisort(std::span<const eq_record>(in), key_of, hash_of);
  std::vector<uint64_t> out_ids;
  std::vector<std::pair<uint64_t, uint64_t>> got, expect;
  for (const eq_record& r : out) {
    out_ids.push_back(r.key.v);
    got.push_back({r.key.v, r.payload});
  }
  for (const eq_record& r : in) expect.push_back({r.key.v, r.payload});
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(groups_match(out_ids, want));

  std::vector<testing::eq_only_key> keys;
  for (const eq_record& r : in) keys.push_back(r.key);
  auto counted =
      count_by_key(std::span<const testing::eq_only_key>(keys), hash_of);
  key_map got_counts;
  for (const auto& [k, c] : counted) got_counts[k.v] += c;
  EXPECT_EQ(counted.size(), want.size());
  EXPECT_EQ(got_counts, want);
}

std::string hostile_name(const ::testing::TestParamInfo<HostileCombo>& info) {
  static const char* const kNames[] = {"identity", "shifted", "constant"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_T" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    ThreeHashes, HostileHash,
    ::testing::Combine(::testing::Values(hostile::identity, hostile::shifted,
                                         hostile::constant),
                       ::testing::Values(1, 4)),
    hostile_name);

}  // namespace
}  // namespace parsemi
