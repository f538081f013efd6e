// Tests for collect_reduce / count_by_key — the MapReduce-style reduction
// layered on the semisort.
#include "core/collect_reduce.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "hashing/hash64.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace parsemi {
namespace {

TEST(CollectReduce, SumsValuesPerKey) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  rng r(1);
  std::map<uint64_t, uint64_t> expected;
  for (int i = 0; i < 100000; ++i) {
    uint64_t k = r.next_below(200);
    uint64_t v = r.next_below(10);
    pairs.emplace_back(k, v);
    expected[k] += v;
  }
  auto got = collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs),
      [](uint64_t k) { return hash64(k); },
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
  ASSERT_EQ(got.size(), expected.size());
  for (auto& [k, v] : got) ASSERT_EQ(v, expected.at(k)) << "key " << k;
}

TEST(CollectReduce, MaxReduction) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  rng r(2);
  std::map<uint64_t, uint64_t> expected;
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = r.next_below(37);
    uint64_t v = r.next();
    pairs.emplace_back(k, v);
    expected[k] = std::max(expected[k], v);
  }
  auto got = collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs),
      [](uint64_t k) { return hash64(k); },
      [](uint64_t a, uint64_t b) { return std::max(a, b); }, uint64_t{0});
  ASSERT_EQ(got.size(), expected.size());
  for (auto& [k, v] : got) ASSERT_EQ(v, expected.at(k));
}

TEST(CollectReduce, StringKeys) {
  std::vector<std::pair<std::string, uint64_t>> pairs;
  for (int i = 0; i < 40000; ++i)
    pairs.emplace_back(std::string("k") + std::to_string(i % 13), 1);
  auto got = collect_reduce(
      std::span<const std::pair<std::string, uint64_t>>(pairs),
      [](const std::string& s) { return hash_string(s); },
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
  ASSERT_EQ(got.size(), 13u);
  for (auto& [k, v] : got) EXPECT_NEAR(static_cast<double>(v), 40000.0 / 13, 1.0);
}

TEST(CollectReduce, EmptyInput) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  auto got = collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs),
      [](uint64_t k) { return hash64(k); },
      [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0});
  EXPECT_TRUE(got.empty());
}

TEST(CountByKey, MatchesMapCounts) {
  std::vector<uint64_t> keys;
  rng r(3);
  std::map<uint64_t, size_t> expected;
  for (int i = 0; i < 80000; ++i) {
    uint64_t k = r.next_below(500);
    keys.push_back(k);
    expected[k]++;
  }
  auto got = count_by_key(std::span<const uint64_t>(keys),
                          [](uint64_t k) { return hash64(k); });
  ASSERT_EQ(got.size(), expected.size());
  for (auto& [k, c] : got) ASSERT_EQ(c, expected.at(k));
}

using testing::eq_only_key;
using testing::kCollidingHashes;

// n pairs over `distinct` keys spread across 64 bits (so count_by_key's
// dense-domain histogram never takes them), values in [0, 10).
std::vector<std::pair<uint64_t, uint64_t>> sparse_pairs(size_t n,
                                                        uint64_t distinct,
                                                        uint64_t seed) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs(n);
  rng r(seed);
  for (auto& [k, v] : pairs) {
    k = r.next_below(distinct) * 0x9e3779b97f4a7c15ULL;
    v = r.next_below(10);
  }
  return pairs;
}

// Checks a reduction's output against a reference: every key once, with
// its reference value — so the group count is the distinct-key count.
template <typename K, typename V>
void expect_matches(const std::vector<std::pair<K, V>>& got,
                    const std::unordered_map<K, V>& expected) {
  std::unordered_map<K, V> seen;
  for (const auto& [k, v] : got)
    ASSERT_TRUE(seen.emplace(k, v).second) << "a key in two groups";
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_EQ(seen, expected);
}

TEST(CollectReduce, CollidingHashesStillReducePerKey) {
  auto pairs = sparse_pairs(50000, 500, 5);
  std::unordered_map<uint64_t, uint64_t> expected;
  for (auto& [k, v] : pairs) expected[k] += v;
  for (auto hash : kCollidingHashes) {
    expect_matches(collect_reduce(
                       std::span<const std::pair<uint64_t, uint64_t>>(pairs),
                       hash, std::plus<uint64_t>{}, uint64_t{0}),
                   expected);
  }
}

TEST(CollectReduce, CollidingHashesOnEqualityOnlyKeys) {
  auto raw = sparse_pairs(20000, 300, 6);
  std::vector<std::pair<eq_only_key, uint64_t>> pairs;
  std::unordered_map<uint64_t, uint64_t> expected;
  for (auto& [k, v] : raw) {
    pairs.push_back({eq_only_key{k}, v});
    expected[k] += v;
  }
  for (auto hash : kCollidingHashes) {
    auto got = collect_reduce(
        std::span<const std::pair<eq_only_key, uint64_t>>(pairs),
        [hash](const eq_only_key& k) { return hash(k.v); },
        std::plus<uint64_t>{}, uint64_t{0});
    std::vector<std::pair<uint64_t, uint64_t>> flat;
    for (auto& [k, v] : got) flat.emplace_back(k.v, v);
    expect_matches(flat, expected);
  }
}

TEST(CollectReduce, CustomEqualityGroupsByItsClasses) {
  // Keys equal modulo 100: a custom Eq keeps the class scan even on an
  // integral key, and the grouping follows Eq, not the raw values.
  auto pairs = sparse_pairs(30000, 5000, 7);
  auto mod_eq = [](uint64_t a, uint64_t b) { return a % 100 == b % 100; };
  std::unordered_map<uint64_t, uint64_t> expected;
  for (auto& [k, v] : pairs) expected[k % 100] += v;
  for (auto hash : kCollidingHashes) {
    auto got = collect_reduce(
        std::span<const std::pair<uint64_t, uint64_t>>(pairs),
        [hash](uint64_t k) { return hash(k % 100); }, std::plus<uint64_t>{},
        uint64_t{0}, mod_eq);
    std::vector<std::pair<uint64_t, uint64_t>> by_class;
    for (auto& [k, v] : got) by_class.emplace_back(k % 100, v);
    expect_matches(by_class, expected);
  }
}

TEST(CountByKey, CollidingHashesStillCountPerKey) {
  auto pairs = sparse_pairs(50000, 700, 8);
  std::vector<uint64_t> keys;
  std::vector<std::string> names;
  std::unordered_map<uint64_t, size_t> expected;
  std::unordered_map<std::string, size_t> expected_names;
  for (auto& [k, v] : pairs) {
    keys.push_back(k);
    names.push_back("user" + std::to_string(k % 997));
    expected[k]++;
    expected_names[names.back()]++;
  }
  for (auto hash : kCollidingHashes) {
    expect_matches(count_by_key(std::span<const uint64_t>(keys), hash),
                   expected);
    expect_matches(
        count_by_key(std::span<const std::string>(names),
                     [hash](const std::string& s) { return hash(s.size()); }),
        expected_names);
  }
}

TEST(CollectReduce, HonestHashCallsEqOncePerRecordBeyondItsGroupsFirst) {
  // The one-read contract: under an honest hash the hash runs are the
  // groups, and the fold checks each record against its group's first key
  // and nothing else — n − groups calls of Eq, no repair, no re-check.
  constexpr size_t n = 200000;
  auto pairs = sparse_pairs(n, 5000, 9);
  std::atomic<uint64_t> calls{0};
  auto counting_eq = [&calls](uint64_t a, uint64_t b) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return a == b;
  };
  std::unordered_map<uint64_t, uint64_t> expected;
  for (auto& [k, v] : pairs) expected[k] += v;
  auto got = collect_reduce(
      std::span<const std::pair<uint64_t, uint64_t>>(pairs),
      [](uint64_t k) { return hash64(k); }, std::plus<uint64_t>{},
      uint64_t{0}, counting_eq);
  expect_matches(got, expected);
  EXPECT_EQ(calls.load(std::memory_order_relaxed), n - expected.size());
}

// A strongly ordered key that counts every comparison made on it.
struct counted_key {
  uint64_t v;
  static inline std::atomic<uint64_t> comparisons{0};
  friend bool operator==(const counted_key& a, const counted_key& b) {
    comparisons.fetch_add(1, std::memory_order_relaxed);
    return a.v == b.v;
  }
  friend std::strong_ordering operator<=>(const counted_key& a,
                                          const counted_key& b) {
    comparisons.fetch_add(1, std::memory_order_relaxed);
    return a.v <=> b.v;
  }
};

TEST(CollectReduce, ConstantHashRepairIsNLogNOnOrderedKeys) {
  // One hash run holding every key: an ordered key is regrouped by a sort,
  // so the whole call stays within 2·n·⌈log₂ n⌉ comparisons (the class
  // scan of an equality-only key would make ~n·distinct/2 of them).
  constexpr size_t n = 200000;
  const uint64_t bound = 2 * n * std::bit_width(n - 1);
  auto raw = sparse_pairs(n, 5000, 10);
  std::vector<std::pair<counted_key, uint64_t>> pairs;
  std::vector<counted_key> keys;
  std::unordered_map<uint64_t, uint64_t> expected;
  for (auto& [k, v] : raw) {
    pairs.push_back({counted_key{k}, v});
    keys.push_back(counted_key{k});
    expected[k] += v;
  }
  auto one_hash = [](const counted_key&) { return uint64_t{42}; };

  counted_key::comparisons.store(0, std::memory_order_relaxed);
  auto got = collect_reduce(
      std::span<const std::pair<counted_key, uint64_t>>(pairs), one_hash,
      std::plus<uint64_t>{}, uint64_t{0});
  EXPECT_LE(counted_key::comparisons.load(std::memory_order_relaxed), bound);
  std::vector<std::pair<uint64_t, uint64_t>> flat;
  for (auto& [k, v] : got) flat.emplace_back(k.v, v);
  expect_matches(flat, expected);

  counted_key::comparisons.store(0, std::memory_order_relaxed);
  auto out = semisort(
      std::span<const counted_key>(keys),
      [](const counted_key& k) -> const counted_key& { return k; }, one_hash);
  EXPECT_LE(counted_key::comparisons.load(std::memory_order_relaxed), bound);
  ASSERT_EQ(out.size(), n);
  size_t runs = 0;
  for (size_t i = 0; i < n; ++i) runs += i == 0 || out[i].v != out[i - 1].v;
  EXPECT_EQ(runs, expected.size());
}

}  // namespace
}  // namespace parsemi
