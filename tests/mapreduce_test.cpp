// Tests for the miniature MapReduce engine (semisort-backed shuffle).
#include "core/mapreduce.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "hashing/hash64.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace parsemi {
namespace {

TEST(MapReduce, WordCountOverDocuments) {
  // Each "document" is a vector of word ids; map emits (word, 1).
  rng r(1);
  std::vector<std::vector<uint64_t>> docs(500);
  std::map<uint64_t, uint64_t> expected;
  for (auto& d : docs) {
    size_t len = 10 + r.next_below(200);
    for (size_t i = 0; i < len; ++i) {
      uint64_t w = r.next_below(300);
      d.push_back(w);
      expected[w]++;
    }
  }
  auto counts = map_reduce<std::vector<uint64_t>, uint64_t, uint64_t, uint64_t>(
      std::span<const std::vector<uint64_t>>(docs),
      [](const std::vector<uint64_t>& doc, auto emit) {
        for (uint64_t w : doc) emit(w, uint64_t{1});
      },
      [](uint64_t w) { return hash64(w); },
      [](uint64_t acc, const uint64_t& v) { return acc + v; }, uint64_t{0});
  ASSERT_EQ(counts.size(), expected.size());
  for (auto& [w, c] : counts) ASSERT_EQ(c, expected.at(w)) << "word " << w;
}

TEST(MapReduce, EmptyInput) {
  std::vector<int> empty;
  auto out = map_reduce<int, uint64_t, uint64_t, uint64_t>(
      std::span<const int>(empty),
      [](int, auto) {},
      [](uint64_t k) { return hash64(k); },
      [](uint64_t acc, const uint64_t& v) { return acc + v; }, uint64_t{0});
  EXPECT_TRUE(out.empty());
}

TEST(MapReduce, MapperEmittingNothing) {
  std::vector<int> inputs(1000, 5);
  auto out = map_reduce<int, uint64_t, uint64_t, uint64_t>(
      std::span<const int>(inputs),
      [](int, auto) {},  // no emissions at all
      [](uint64_t k) { return hash64(k); },
      [](uint64_t acc, const uint64_t& v) { return acc + v; }, uint64_t{0});
  EXPECT_TRUE(out.empty());
}

TEST(MapReduce, VariableEmissionCounts) {
  // Item i emits i % 5 pairs; checks the concat-with-scan plumbing.
  std::vector<uint64_t> inputs(10000);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = i;
  auto out = map_reduce<uint64_t, uint64_t, uint64_t, uint64_t>(
      std::span<const uint64_t>(inputs),
      [](uint64_t item, auto emit) {
        for (uint64_t j = 0; j < item % 5; ++j) emit(item % 7, j);
      },
      [](uint64_t k) { return hash64(k); },
      [](uint64_t acc, const uint64_t& v) { return acc + v; }, uint64_t{0});
  // Keys 0..6, except keys where no item emits (item%5==0 emits nothing,
  // but every residue class mod 7 contains items with item%5 != 0).
  EXPECT_EQ(out.size(), 7u);
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t item = 0; item < 10000; ++item)
    for (uint64_t j = 0; j < item % 5; ++j) expected[item % 7] += j;
  for (auto& [k, v] : out) ASSERT_EQ(v, expected.at(k));
}

TEST(MapReduce, StringKeysAndNonCommutativeFold) {
  // Fold builds a count while also tracking the max value — exercising an
  // accumulator type different from the value type.
  struct acc_t {
    uint64_t count = 0;
    uint64_t max = 0;
  };
  std::vector<std::pair<std::string, uint64_t>> inputs;
  rng r(2);
  for (int i = 0; i < 20000; ++i)
    inputs.emplace_back(std::string("k") + std::to_string(i % 11), r.next_below(1000000));
  auto out = map_reduce<std::pair<std::string, uint64_t>, std::string,
                        uint64_t, acc_t>(
      std::span<const std::pair<std::string, uint64_t>>(inputs),
      [](const std::pair<std::string, uint64_t>& kv, auto emit) {
        emit(kv.first, kv.second);
      },
      [](const std::string& s) { return hash_string(s); },
      [](acc_t acc, const uint64_t& v) {
        acc.count++;
        acc.max = std::max(acc.max, v);
        return acc;
      },
      acc_t{});
  ASSERT_EQ(out.size(), 11u);
  uint64_t total = 0;
  for (auto& [k, acc] : out) total += acc.count;
  EXPECT_EQ(total, inputs.size());
}

using testing::kCollidingHashes;

TEST(MapReduce, CollidingHashesStillCountPerWord) {
  // Documents of word ids spread across 64 bits; map emits (word, 1).
  rng r(13);
  std::vector<std::vector<uint64_t>> docs(300);
  std::unordered_map<uint64_t, uint64_t> expected;
  for (auto& d : docs) {
    size_t len = 10 + r.next_below(150);
    for (size_t i = 0; i < len; ++i) {
      uint64_t w = r.next_below(400) * 0x9e3779b97f4a7c15ULL;
      d.push_back(w);
      expected[w]++;
    }
  }
  for (auto hash : kCollidingHashes) {
    auto counts =
        map_reduce<std::vector<uint64_t>, uint64_t, uint64_t, uint64_t>(
            std::span<const std::vector<uint64_t>>(docs),
            [](const std::vector<uint64_t>& doc, auto emit) {
              for (uint64_t w : doc) emit(w, uint64_t{1});
            },
            hash, [](uint64_t acc, const uint64_t& v) { return acc + v; },
            uint64_t{0});
    ASSERT_EQ(counts.size(), expected.size());
    std::unordered_map<uint64_t, uint64_t> seen;
    for (auto& [w, c] : counts)
      ASSERT_TRUE(seen.emplace(w, c).second) << "word " << w << " twice";
    EXPECT_EQ(seen, expected);
  }
}

}  // namespace
}  // namespace parsemi
