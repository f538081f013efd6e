// Tests for blocked parallel scan / reduce against sequential references.
#include "primitives/scan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "scheduler/scheduler.h"
#include "util/rng.h"

namespace parsemi {
namespace {

std::vector<uint64_t> random_values(size_t n, uint64_t seed) {
  std::vector<uint64_t> v(n);
  rng r(seed);
  for (auto& x : v) x = r.next() % 1000;
  return v;
}

class ScanSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(ScanSizes, ExclusiveMatchesSequential) {
  size_t n = GetParam();
  auto v = random_values(n, n * 7 + 1);
  auto expected = v;
  uint64_t running = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t next = running + expected[i];
    expected[i] = running;
    running = next;
  }
  auto got = v;
  uint64_t total = scan_exclusive_inplace(std::span<uint64_t>(got));
  EXPECT_EQ(total, running);
  EXPECT_EQ(got, expected);
}

TEST_P(ScanSizes, ReduceMatchesAccumulate) {
  size_t n = GetParam();
  auto v = random_values(n, n + 99);
  uint64_t expected = std::accumulate(v.begin(), v.end(), uint64_t{0});
  EXPECT_EQ(reduce(std::span<const uint64_t>(v)), expected);
}

INSTANTIATE_TEST_SUITE_P(AcrossSizes, ScanSizes,
                         ::testing::Values(0, 1, 2, 3, 7, 100, 2047, 2048,
                                           2049, 10000, 131072, 1000003));

TEST(Scan, ExclusiveWithInit) {
  std::vector<int> v = {1, 2, 3, 4};
  int total = scan_exclusive_inplace(std::span<int>(v), 100);
  EXPECT_EQ(total, 110);
  EXPECT_EQ(v, (std::vector<int>{100, 101, 103, 106}));
}

TEST(Scan, AllZeros) {
  std::vector<uint64_t> v(100000, 0);
  EXPECT_EQ(scan_exclusive_inplace(std::span<uint64_t>(v)), 0u);
  for (uint64_t x : v) ASSERT_EQ(x, 0u);
}

TEST(Scan, DeterministicAcrossWorkerCounts) {
  auto v = random_values(300000, 4242);
  auto a = v;
  int original = num_workers();
  set_num_workers(1);
  uint64_t t1 = scan_exclusive_inplace(std::span<uint64_t>(a));
  auto b = v;
  set_num_workers(4);
  uint64_t t4 = scan_exclusive_inplace(std::span<uint64_t>(b));
  set_num_workers(original);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(a, b);
}

TEST(ReduceIndex, SumOfSquares) {
  uint64_t got = reduce_index<uint64_t>(
      1000, [](size_t i) { return static_cast<uint64_t>(i) * i; });
  uint64_t expected = 0;
  for (uint64_t i = 0; i < 1000; ++i) expected += i * i;
  EXPECT_EQ(got, expected);
}

TEST(CountIf, CountsMatchingIndices) {
  EXPECT_EQ(count_if_index(100000, [](size_t i) { return i % 3 == 0; }),
            33334u);
  EXPECT_EQ(count_if_index(0, [](size_t) { return true; }), 0u);
  EXPECT_EQ(count_if_index(17, [](size_t) { return false; }), 0u);
}

}  // namespace
}  // namespace parsemi
