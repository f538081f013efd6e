// Tests for group_by / group_by_hashed: boundary correctness on top of the
// semisort.
#include "core/group_by.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "test_helpers.h"
#include "util/rng.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

TEST(GroupBy, EmptyInput) {
  std::vector<record> in;
  auto g = group_by_hashed(std::span<const record>(in));
  EXPECT_EQ(g.num_groups(), 0u);
  EXPECT_TRUE(g.records.empty());
}

TEST(GroupBy, SingleGroup) {
  std::vector<record> in(1000, record{7, 0});
  auto g = group_by_hashed(std::span<const record>(in));
  ASSERT_EQ(g.num_groups(), 1u);
  EXPECT_EQ(g.group(0).size(), 1000u);
}

TEST(GroupBy, BoundariesPartitionTheOutput) {
  auto in = generate_records(120000, {distribution_kind::zipfian, 5000}, 3);
  auto g = group_by_hashed(std::span<const record>(in));
  ASSERT_GE(g.num_groups(), 1u);
  EXPECT_EQ(g.group_start.front(), 0u);
  EXPECT_EQ(g.group_start.back(), in.size());
  auto expected = testing::key_counts(std::span<const record>(in), record_key{});
  EXPECT_EQ(g.num_groups(), expected.size());
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    ASSERT_FALSE(span.empty());
    uint64_t key = span.front().key;
    for (const auto& r : span) ASSERT_EQ(r.key, key);
    ASSERT_EQ(span.size(), expected.at(key));
    // Adjacent groups have different keys.
    if (grp + 1 < g.num_groups()) {
      ASSERT_NE(key, g.group(grp + 1).front().key);
    }
  }
}

TEST(GroupBy, AllDistinctKeys) {
  std::vector<record> in(50000);
  for (size_t i = 0; i < in.size(); ++i) in[i] = {hash64(i), i};
  auto g = group_by_hashed(std::span<const record>(in));
  EXPECT_EQ(g.num_groups(), in.size());
}

TEST(GroupBy, GeneralApiStrings) {
  std::vector<std::string> names;
  for (int i = 0; i < 30000; ++i) names.push_back("user" + std::to_string(i % 97));
  auto g = group_by(std::span<const std::string>(names),
                    [](const std::string& s) -> const std::string& { return s; },
                    [](const std::string& s) { return hash_string(s); });
  EXPECT_EQ(g.num_groups(), 97u);
  size_t total = 0;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    for (const auto& s : span) ASSERT_EQ(s, span.front());
    total += span.size();
  }
  EXPECT_EQ(total, names.size());
}

TEST(GroupBySorted, WithinGroupOrderingByPayload) {
  // Stable-semisort flavour: groups ordered internally by original index
  // (payload == input position in generate_records).
  auto in = generate_records(80000, {distribution_kind::exponential, 100}, 9);
  auto g = group_by_hashed_sorted(
      std::span<const record>(in), record_key{},
      [](const record& a, const record& b) { return a.payload < b.payload; });
  ASSERT_EQ(g.records.size(), in.size());
  size_t covered = 0;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    for (size_t i = 1; i < span.size(); ++i) {
      ASSERT_EQ(span[i].key, span[0].key);
      ASSERT_LT(span[i - 1].payload, span[i].payload);
    }
    covered += span.size();
  }
  EXPECT_EQ(covered, in.size());
}

TEST(GroupBySorted, DescendingComparator) {
  auto in = generate_records(30000, {distribution_kind::uniform, 100}, 10);
  auto g = group_by_hashed_sorted(
      std::span<const record>(in), record_key{},
      [](const record& a, const record& b) { return a.payload > b.payload; });
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    for (size_t i = 1; i < span.size(); ++i)
      ASSERT_GT(span[i - 1].payload, span[i].payload);
  }
}

TEST(GroupByIndex, PermutationGroupsWithoutMovingRecords) {
  auto in = generate_records(100000, {distribution_kind::exponential, 250}, 11);
  auto g = group_by_index(std::span<const record>(in));
  ASSERT_EQ(g.order.size(), in.size());
  // order is a permutation of [0, n)
  std::vector<uint8_t> seen(in.size(), 0);
  for (size_t idx : g.order) {
    ASSERT_LT(idx, in.size());
    ASSERT_EQ(seen[idx], 0);
    seen[idx] = 1;
  }
  // groups hold equal keys, boundaries partition everything, and no key
  // spans two groups
  auto expected = testing::key_counts(std::span<const record>(in), record_key{});
  ASSERT_EQ(g.num_groups(), expected.size());
  size_t covered = 0;
  std::unordered_set<uint64_t> closed;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    ASSERT_FALSE(span.empty());
    uint64_t key = in[span.front()].key;
    ASSERT_FALSE(closed.contains(key));
    closed.insert(key);
    for (size_t idx : span) ASSERT_EQ(in[idx].key, key);
    ASSERT_EQ(span.size(), expected.at(key));
    covered += span.size();
  }
  EXPECT_EQ(covered, in.size());
}

TEST(GroupByIndex, EmptyInput) {
  std::vector<record> in;
  auto g = group_by_index(std::span<const record>(in));
  EXPECT_EQ(g.num_groups(), 0u);
  EXPECT_TRUE(g.order.empty());
}

TEST(GroupBy, GroupSpansAreContiguousViews) {
  auto in = generate_records(20000, {distribution_kind::uniform, 50}, 4);
  auto g = group_by_hashed(std::span<const record>(in));
  size_t covered = 0;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    EXPECT_EQ(g.group(grp).data(), g.records.data() + g.group_start[grp]);
    covered += g.group(grp).size();
  }
  EXPECT_EQ(covered, in.size());
}

using testing::eq_only_key;
using testing::kCollidingHashes;

// Checks a group_by result against per-key reference counts: each group
// holds one key, no key spans two groups, sizes match, and the group count
// is the distinct-key count.
template <typename T, typename KeyOf>
void expect_grouped(const grouped<T>& g, size_t n, KeyOf key_of,
                    const std::unordered_map<uint64_t, size_t>& expected) {
  ASSERT_EQ(g.records.size(), n);
  ASSERT_EQ(g.num_groups(), expected.size());
  std::unordered_set<uint64_t> closed;
  for (size_t grp = 0; grp < g.num_groups(); ++grp) {
    auto span = g.group(grp);
    ASSERT_FALSE(span.empty());
    uint64_t key = key_of(span.front());
    ASSERT_TRUE(closed.insert(key).second) << "key " << key;
    for (const auto& r : span) ASSERT_EQ(key_of(r), key);
    ASSERT_EQ(span.size(), expected.at(key));
  }
}

TEST(GroupBy, CollidingHashesStillGroupByKey) {
  rng r(12);
  std::vector<record> in(40000);
  for (size_t i = 0; i < in.size(); ++i)
    in[i] = {r.next_below(300) * 0x9e3779b97f4a7c15ULL, i};
  std::vector<std::pair<eq_only_key, uint64_t>> eq_only;
  for (const record& rec : in) eq_only.push_back({eq_only_key{rec.key}, 0});
  auto expected =
      testing::key_counts(std::span<const record>(in), record_key{});
  for (auto hash : kCollidingHashes) {
    auto g = group_by(std::span<const record>(in), record_key{}, hash);
    expect_grouped(g, in.size(), record_key{}, expected);
    EXPECT_TRUE(testing::records_permutation(g.records, in));

    auto h = group_by(
        std::span<const std::pair<eq_only_key, uint64_t>>(eq_only),
        [](const std::pair<eq_only_key, uint64_t>& p) { return p.first; },
        [hash](const eq_only_key& k) { return hash(k.v); });
    expect_grouped(h, in.size(),
                   [](const std::pair<eq_only_key, uint64_t>& p) {
                     return p.first.v;
                   },
                   expected);
  }
}

}  // namespace
}  // namespace parsemi
