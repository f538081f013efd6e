// Tests for Phase 3 — the scatter engine: the exact-count distribution
// (contiguous hole-free buckets, stable and byte-identical at every worker
// count, no overflow at any α) and the paper's CAS path (linear/random
// probing, key-CAS and flag-array slot claiming, sentinel clash and
// overflow detection).
#include "core/scatter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/bucket_plan.h"
#include "core/sampler.h"
#include "core/semisort.h"
#include "hashing/hash64.h"
#include "sort/radix_sort.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// Arbitrary record type WITHOUT a leading key word → flag-array mode.
struct odd_record {
  uint32_t tag;
  uint64_t key_value;
  friend bool operator==(const odd_record&, const odd_record&) = default;
};
struct odd_key {
  uint64_t operator()(const odd_record& r) const { return r.key_value; }
};

// 12-byte record — an odd (non-power-of-two, sub-cache-line) size on the
// flag-array variant, so the CAS path's claims and the exact path's
// placement handle slots that straddle cache lines unevenly.
struct tiny_record {
  uint32_t lo;
  uint32_t hi;
  uint32_t tag;
  friend bool operator==(const tiny_record&, const tiny_record&) = default;
};
struct tiny_key {
  uint64_t operator()(const tiny_record& r) const {
    return r.lo | (static_cast<uint64_t>(r.hi) << 32);
  }
};
static_assert(sizeof(tiny_record) == 12);

static_assert(scatter_storage<record>::kKeyCas,
              "record must take the key-CAS fast path");

// Shared context: plans are arena-backed views tied to the context they
// were built on; a static one keeps them valid for the binary's lifetime.
pipeline_context& test_ctx() {
  static pipeline_context ctx;
  return ctx;
}
static_assert(!scatter_storage<odd_record>::kKeyCas,
              "odd_record must take the flag-array path");
static_assert(!scatter_storage<tiny_record>::kKeyCas,
              "tiny_record must take the flag-array path");

template <typename Record, typename GetKey>
std::pair<bucket_plan, std::vector<Record>> plan_for(
    const std::vector<Record>& in, GetKey get_key,
    const semisort_params& params) {
  rng base(99);
  auto sample = sample_keys(std::span<const Record>(in), get_key,
                            params.sampling_p, base);
  radix_sort_u64(std::span<uint64_t>(sample));
  auto plan = build_bucket_plan(std::span<const uint64_t>(sample), in.size(),
                                params, params.alpha, test_ctx());
  return {std::move(plan), in};
}

template <typename Record, typename GetKey, typename Less>
void check_scatter(const std::vector<Record>& in, GetKey get_key, Less less,
                   semisort_params params) {
  auto [plan, input] = plan_for(in, get_key, params);
  scatter_storage<Record> storage(plan.total_slots, rng(5).next() | 1);
  auto result = scatter_records(std::span<const Record>(input), storage, plan,
                                get_key, params, rng(7));
  ASSERT_EQ(result, scatter_result::ok);

  // Every record present exactly once, inside its own bucket's slot range.
  std::vector<Record> found;
  for (size_t i = 0; i < plan.total_slots; ++i)
    if (storage.occupied(i)) found.push_back(storage.slots[i]);
  ASSERT_EQ(found.size(), input.size());
  EXPECT_TRUE(testing::is_permutation_of(std::span<const Record>(found),
                                         std::span<const Record>(input), less));
  for (size_t b = 0; b < plan.num_buckets(); ++b) {
    for (size_t i = plan.bucket_offset[b]; i < plan.bucket_offset[b + 1]; ++i) {
      if (storage.occupied(i)) {
        ASSERT_EQ(plan.bucket_of(get_key(storage.slots[i])), b) << "slot " << i;
      }
    }
  }
}

// The exact path's output for `plan`, checked against its contract:
// the returned layout has no holes (it ends at n, and the light buckets
// start at the heavy-record count), the plan's α·f(s) layout is left as
// built, and the placement equals a stable partition of the input by
// bucket id — which pins it byte for byte.
template <typename Record, typename GetKey>
std::vector<Record> check_exact(const std::vector<Record>& input,
                                const bucket_plan& plan, GetKey get_key) {
  pipeline_context scratch;
  std::vector<Record> dest(input.size());
  std::vector<size_t> capacities(plan.bucket_offset.begin(),
                                 plan.bucket_offset.end());
  std::span<const size_t> start = scatter_exact(
      std::span<const Record>(input), std::span<Record>(dest), plan, get_key,
      scratch);
  EXPECT_TRUE(std::equal(capacities.begin(), capacities.end(),
                         plan.bucket_offset.begin(), plan.bucket_offset.end()));
  EXPECT_EQ(start.size(), plan.num_buckets() + 1);
  EXPECT_EQ(start.front(), 0u);
  EXPECT_EQ(start.back(), input.size());
  size_t heavy = 0;
  for (const Record& r : input) heavy += plan.bucket_of(get_key(r)) < plan.num_heavy;
  EXPECT_EQ(start[plan.num_heavy], heavy);

  std::vector<Record> expect = input;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](const Record& a, const Record& b) {
                     return plan.bucket_of(get_key(a)) <
                            plan.bucket_of(get_key(b));
                   });
  EXPECT_TRUE(dest == expect) << "not the stable partition by bucket";
  for (size_t b = 0; b < plan.num_buckets(); ++b) {
    for (size_t i = start[b]; i < start[b + 1]; ++i)
      EXPECT_EQ(plan.bucket_of(get_key(dest[i])), b) << "slot " << i;
  }
  return dest;
}

namespace {
bool rec_less(const record& a, const record& b) {
  return a.key != b.key ? a.key < b.key : a.payload < b.payload;
}
bool odd_less(const odd_record& a, const odd_record& b) {
  return a.key_value != b.key_value ? a.key_value < b.key_value : a.tag < b.tag;
}
}  // namespace

TEST(Scatter, KeyCasModeUniformInput) {
  auto in = generate_records(100000, {distribution_kind::uniform, 100000}, 1);
  check_scatter(in, record_key{}, rec_less, semisort_params{});
}

TEST(Scatter, KeyCasModeHeavyInput) {
  auto in = generate_records(100000, {distribution_kind::uniform, 10}, 2);
  check_scatter(in, record_key{}, rec_less, semisort_params{});
}

TEST(Scatter, KeyCasModeZipfInput) {
  auto in = generate_records(80000, {distribution_kind::zipfian, 100000}, 3);
  check_scatter(in, record_key{}, rec_less, semisort_params{});
}

TEST(Scatter, FlagModeArbitraryRecordType) {
  std::vector<odd_record> in(60000);
  rng r(4);
  for (size_t i = 0; i < in.size(); ++i)
    in[i] = {static_cast<uint32_t>(i), hash64(r.next_below(500))};
  check_scatter(in, odd_key{}, odd_less, semisort_params{});
}

TEST(Scatter, RandomProbingAblation) {
  semisort_params params;
  params.probing = semisort_params::probe_strategy::random;
  auto in = generate_records(60000, {distribution_kind::exponential, 1000}, 5);
  check_scatter(in, record_key{}, rec_less, params);
}

TEST(Scatter, ExactPathKeyRecords) {
  auto in = generate_records(100000, {distribution_kind::zipfian, 100000}, 12);
  auto [plan, input] = plan_for(in, record_key{}, semisort_params{});
  check_exact(input, plan, record_key{});
}

TEST(Scatter, ExactPathKeyNotFirstMember) {
  std::vector<odd_record> in(60000);
  rng r(14);
  for (size_t i = 0; i < in.size(); ++i)
    in[i] = {static_cast<uint32_t>(i), hash64(r.next_below(700))};
  auto [plan, input] = plan_for(in, odd_key{}, semisort_params{});
  check_exact(input, plan, odd_key{});
}

TEST(Scatter, TwelveByteRecordsBothPaths) {
  // 12-byte flag-array records on both paths: slot offsets that are not a
  // power of two, with flag bytes tracking occupancy on CAS.
  std::vector<tiny_record> in(50000);
  rng r(15);
  for (size_t i = 0; i < in.size(); ++i) {
    uint64_t k = hash64(r.next_below(300));
    in[i] = {static_cast<uint32_t>(k), static_cast<uint32_t>(k >> 32),
             static_cast<uint32_t>(i)};
  }
  auto less = [](const tiny_record& a, const tiny_record& b) {
    return tiny_key{}(a) != tiny_key{}(b) ? tiny_key{}(a) < tiny_key{}(b)
                                          : a.tag < b.tag;
  };
  check_scatter(in, tiny_key{}, less, semisort_params{});
  auto [plan, input] = plan_for(in, tiny_key{}, semisort_params{});
  check_exact(input, plan, tiny_key{});
}

TEST(Scatter, SentinelClashDetectedOnCas) {
  // Force a record whose key equals the sentinel: the CAS path must report
  // the clash rather than silently corrupting occupancy.
  auto in = generate_records(5000, {distribution_kind::uniform, 100}, 6);
  uint64_t sentinel = rng(5).next() | 1;
  in[1234].key = sentinel;
  semisort_params params;
  auto [plan, input] = plan_for(in, record_key{}, params);
  scatter_storage<record> storage(plan.total_slots, sentinel);
  EXPECT_EQ(scatter_records(std::span<const record>(input), storage, plan,
                            record_key{}, params, rng(7)),
            scatter_result::sentinel_clash);
}

TEST(Scatter, OverflowOnCasButNotOnExactPath) {
  // Shrink every bucket to ~nothing by building the plan for a tiny
  // pretended n, then scattering far more records into it: CAS overflows,
  // the exact path ignores the α·f(s) capacities and lays out exact totals.
  auto few = generate_records(64, {distribution_kind::uniform, 4}, 7);
  semisort_params params;
  params.round_to_pow2 = false;
  rng base(1);
  auto sample = sample_keys(std::span<const record>(few), record_key{},
                            params.sampling_p, base);
  radix_sort_u64(std::span<uint64_t>(sample));
  auto plan =
      build_bucket_plan(std::span<const uint64_t>(sample), 64, params, 0.01,
                        test_ctx());
  ASSERT_LT(plan.total_slots, 100000u);

  auto many = generate_records(100000, {distribution_kind::uniform, 4}, 7);
  scatter_storage<record> storage(plan.total_slots, rng(5).next() | 1);
  EXPECT_EQ(scatter_records(std::span<const record>(many), storage, plan,
                            record_key{}, params, rng(7)),
            scatter_result::overflow);
  check_exact(many, plan, record_key{});
}

TEST(Scatter, ExactPathHasNoSentinelToClash) {
  // End-to-end: a key equal to the sentinel the first CAS attempt would
  // draw is just a key to the exact path — no restart, valid output.
  size_t n = 40000;
  auto in = generate_records(n, {distribution_kind::uniform, 500}, 16);
  semisort_params params;
  params.scatter_with = semisort_params::scatter_strategy::blocked;
  rng attempt0(splitmix64(params.seed + 0x9e3779b9ULL * 0));
  in[77].key = attempt0.split(2).next() | 1;  // the attempt-0 CAS sentinel
  semisort_stats stats;
  params.stats = &stats;
  std::vector<record> out(n);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.scatter_path_used, scatter_path::blocked);
  EXPECT_TRUE(testing::valid_semisort(std::span<const record>(out),
                                      std::span<const record>(in)));
}

TEST(Scatter, DeterministicPlacementAcrossWorkerCounts) {
  auto in = generate_records(50000, {distribution_kind::exponential, 100}, 8);
  semisort_params params;
  auto [plan, input] = plan_for(in, record_key{}, params);

  auto run_with = [&](int workers) {
    set_num_workers(workers);
    scatter_storage<record> storage(plan.total_slots, 0x123457ULL);
    auto result = scatter_records(std::span<const record>(input), storage, plan,
                                  record_key{}, params, rng(7));
    EXPECT_EQ(result, scatter_result::ok);
    std::vector<record> recs;
    for (size_t i = 0; i < plan.total_slots; ++i)
      if (storage.occupied(i)) recs.push_back(storage.slots[i]);
    return recs;
  };
  int original = num_workers();
  auto seq = run_with(1);
  auto par = run_with(4);
  set_num_workers(original);
  // Placement *slots* can differ under contention, but the multiset of
  // records per bucket must match; compare bucket-local multisets by
  // sorting both record lists.
  auto less = [](const record& a, const record& b) {
    return a.key != b.key ? a.key < b.key : a.payload < b.payload;
  };
  EXPECT_TRUE(testing::is_permutation_of(std::span<const record>(par),
                                         std::span<const record>(seq), less));
}

TEST(Scatter, ExactPlacementByteIdenticalAcrossWorkersAndFuzz) {
  // Stronger than the CAS guarantee: the exact path's placement is the
  // stable partition by bucket at 1, 2 and 4 workers and under perturbed
  // schedules (check_exact pins every run to the same reference).
  auto in = generate_records(50000, {distribution_kind::exponential, 100}, 9);
  auto [plan, input] = plan_for(in, record_key{}, semisort_params{});
  int original = num_workers();
  for (int workers : {1, 2, 4}) {
    for (uint64_t fuzz_seed : {0ull, 11ull}) {
      set_num_workers(workers);
      sched_fuzz::scoped_enable fuzz(sched_fuzz::kCompiledIn ? fuzz_seed : 0);
      check_exact(input, plan, record_key{});
    }
  }
  set_num_workers(original);
}

}  // namespace
}  // namespace parsemi
