// Tests for the parallel pack / pack_index building blocks.
#include "primitives/pack.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace parsemi {
namespace {

class PackSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(PackSizes, PackKeepsFlaggedElementsInOrder) {
  size_t n = GetParam();
  std::vector<uint64_t> v(n);
  rng r(n + 3);
  for (size_t i = 0; i < n; ++i) v[i] = r.next() % 100;
  auto keep = [&](size_t i) { return v[i] % 2 == 0; };

  std::vector<uint64_t> expected;
  for (size_t i = 0; i < n; ++i)
    if (keep(i)) expected.push_back(v[i]);

  auto got = pack(std::span<const uint64_t>(v), keep);
  EXPECT_EQ(got, expected);
}

TEST_P(PackSizes, PackIndexMatchesSequential) {
  size_t n = GetParam();
  auto pred = [](size_t i) { return (i % 7 == 0) || (i % 11 == 3); };
  std::vector<size_t> expected;
  for (size_t i = 0; i < n; ++i)
    if (pred(i)) expected.push_back(i);
  EXPECT_EQ(pack_index(n, pred), expected);
}

INSTANTIATE_TEST_SUITE_P(AcrossSizes, PackSizes,
                         ::testing::Values(0, 1, 2, 10, 1000, 2048, 65537,
                                           500000));

TEST(Pack, NoneKept) {
  std::vector<int> v(5000, 1);
  auto got = pack(std::span<const int>(v), [](size_t) { return false; });
  EXPECT_TRUE(got.empty());
}

TEST(Pack, AllKept) {
  std::vector<int> v(5000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  auto got = pack(std::span<const int>(v), [](size_t) { return true; });
  EXPECT_EQ(got, v);
}

TEST(Pack, SingleSurvivorAtEveryPosition) {
  constexpr size_t kN = 3000;
  for (size_t keep : {size_t{0}, kN / 2, kN - 1}) {
    std::vector<size_t> v(kN);
    for (size_t i = 0; i < kN; ++i) v[i] = i;
    auto got = pack(std::span<const size_t>(v),
                    [&](size_t i) { return i == keep; });
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], keep);
  }
}

TEST(PackIndex, BoundaryDetectionPattern) {
  // The usage pattern of Phase 2: boundaries of runs in a sorted array.
  std::vector<uint64_t> sorted = {1, 1, 1, 4, 4, 9, 9, 9, 9, 12};
  auto starts = pack_index(sorted.size(), [&](size_t i) {
    return i == 0 || sorted[i] != sorted[i - 1];
  });
  EXPECT_EQ(starts, (std::vector<size_t>{0, 3, 5, 9}));
}

}  // namespace
}  // namespace parsemi
