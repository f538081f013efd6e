// Tests for Phase 3 — the scatter engine: both placement paths (CAS with
// linear/random probing, blocked two-pass counting), both slot claiming
// modes (key-CAS and flag-array), sentinel
// clash and overflow detection on every path, and the blocked path's
// deterministic stable placement.
#include "core/scatter.h"

#include <gtest/gtest.h>

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
// flag-array variant, so the CAS path's claims and the blocked path's
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

constexpr scatter_path kAllPaths[] = {scatter_path::cas,
                                      scatter_path::blocked};

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
                   semisort_params params,
                   scatter_path path = scatter_path::cas) {
  auto [plan, input] = plan_for(in, get_key, params);
  scatter_storage<Record> storage(plan.total_slots, rng(5).next() | 1);
  auto result =
      scatter_dispatch(path, std::span<const Record>(input), storage, plan,
                       get_key, params, rng(7), test_ctx());
  ASSERT_EQ(result, scatter_result::ok);

  // Every record present exactly once, inside its own bucket's slot range.
  std::vector<Record> found;
  for (size_t i = 0; i < plan.total_slots; ++i)
    if (storage.occupied(i)) found.push_back(storage.slots[i]);
  ASSERT_EQ(found.size(), input.size());
  EXPECT_TRUE(testing::is_permutation_of(std::span<const Record>(found),
                                         std::span<const Record>(input), less));
  // Placement respects bucket boundaries; the blocked path additionally
  // fills each bucket front-to-back (occupancy is a prefix).
  for (size_t b = 0; b < plan.num_buckets(); ++b) {
    bool gap = false;
    for (size_t i = plan.bucket_offset[b]; i < plan.bucket_offset[b + 1]; ++i) {
      if (storage.occupied(i)) {
        ASSERT_EQ(plan.bucket_of(get_key(storage.slots[i])), b) << "slot " << i;
        if (path != scatter_path::cas) {
          ASSERT_FALSE(gap) << "bucket " << b << " not prefix-filled";
        }
      } else {
        gap = true;
      }
    }
  }
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

TEST(Scatter, BlockedPathKeyCasRecords) {
  auto in = generate_records(100000, {distribution_kind::zipfian, 100000}, 12);
  check_scatter(in, record_key{}, rec_less, semisort_params{},
                scatter_path::blocked);
}

TEST(Scatter, BlockedPathFlagModeOddRecords) {
  std::vector<odd_record> in(60000);
  rng r(14);
  for (size_t i = 0; i < in.size(); ++i)
    in[i] = {static_cast<uint32_t>(i), hash64(r.next_below(700))};
  check_scatter(in, odd_key{}, odd_less, semisort_params{},
                scatter_path::blocked);
}

TEST(Scatter, TwelveByteRecordsAllPaths) {
  // 12-byte flag-array records on both paths: slot offsets that are not a
  // power of two, with flag bytes tracking occupancy.
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
  for (scatter_path path : kAllPaths)
    check_scatter(in, tiny_key{}, less, semisort_params{}, path);
}

TEST(Scatter, SentinelClashDetectedOnEveryPath) {
  // Force a record whose key equals the sentinel: every path must report
  // the clash rather than silently corrupting occupancy.
  auto in = generate_records(5000, {distribution_kind::uniform, 100}, 6);
  uint64_t sentinel = rng(5).next() | 1;
  in[1234].key = sentinel;
  semisort_params params;
  auto [plan, input] = plan_for(in, record_key{}, params);
  for (scatter_path path : kAllPaths) {
    scatter_storage<record> storage(plan.total_slots, sentinel);
    auto result =
        scatter_dispatch(path, std::span<const record>(input), storage, plan,
                         record_key{}, params, rng(7), test_ctx());
    EXPECT_EQ(result, scatter_result::sentinel_clash)
        << "path " << to_string(path);
  }
}

TEST(Scatter, OverflowDetectedWhenBucketsTooSmallOnEveryPath) {
  // Shrink every bucket to ~nothing by building the plan for a tiny
  // pretended n, then scattering far more records into it.
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
  for (scatter_path path : kAllPaths) {
    scatter_storage<record> storage(plan.total_slots, rng(5).next() | 1);
    auto result =
        scatter_dispatch(path, std::span<const record>(many), storage, plan,
                         record_key{}, params, rng(7), test_ctx());
    EXPECT_EQ(result, scatter_result::overflow) << "path " << to_string(path);
  }
}

TEST(Scatter, BlockedSentinelClashTriggersSemisortRestart) {
  // End-to-end: a semisort forced onto the blocked path whose first
  // attempt draws a sentinel colliding with an input key must restart with
  // a fresh sentinel and still produce a valid semisort. Plant the colliding
  // key by computing the sentinel the first attempt will draw.
  size_t n = 40000;
  auto in = generate_records(n, {distribution_kind::uniform, 500}, 16);
  semisort_params params;
  params.scatter_with = semisort_params::scatter_strategy::blocked;
  // Attempt 0 seeds its rng exactly like semisort_attempt does.
  rng attempt0(splitmix64(params.seed + 0x9e3779b9ULL * 0));
  in[77].key = attempt0.split(2).next() | 1;  // the attempt-0 sentinel
  semisort_stats stats;
  params.stats = &stats;
  std::vector<record> out(n);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_GE(stats.restarts, 1);
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

TEST(Scatter, BlockedPlacementExactlyDeterministicAcrossWorkerCounts) {
  // Stronger than the CAS guarantee: the blocked path's two-pass placement
  // is stable (input order within each bucket) and byte-identical at every
  // worker count — the full slot array must match, not just per-bucket
  // multisets.
  auto in = generate_records(50000, {distribution_kind::exponential, 100}, 9);
  semisort_params params;
  auto [plan, input] = plan_for(in, record_key{}, params);

  auto run_with = [&](int workers) {
    set_num_workers(workers);
    scatter_storage<record> storage(plan.total_slots, 0x123457ULL);
    auto result = scatter_dispatch(scatter_path::blocked,
                                   std::span<const record>(input), storage,
                                   plan, record_key{}, params, rng(7),
                                   test_ctx());
    EXPECT_EQ(result, scatter_result::ok);
    std::vector<record> recs;
    for (size_t i = 0; i < plan.total_slots; ++i)
      recs.push_back(storage.occupied(i) ? storage.slots[i]
                                         : record{0, 0});
    return recs;
  };
  int original = num_workers();
  auto seq = run_with(1);
  auto par = run_with(4);
  set_num_workers(original);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_EQ(seq[i].key, par[i].key) << "slot " << i;
    ASSERT_EQ(seq[i].payload, par[i].payload) << "slot " << i;
  }
}

}  // namespace
}  // namespace parsemi
