// Tests for the per-block histogram kernel (histogram_blocks), the counting
// pass that distribute_stable and count_by_key run.
#include "primitives/histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace parsemi {
namespace {

// Runs the kernel at its default blocking and sums the matrix's columns,
// as count_by_key does. The matrix starts non-zero: the kernel must zero
// its own rows.
template <typename KeyFn>
std::vector<size_t> column_totals(size_t n, size_t num_buckets, KeyFn key) {
  size_t block = histogram_block_size(n, num_buckets);
  size_t num_blocks = histogram_num_blocks(n, block);
  std::vector<size_t> counts(num_blocks * num_buckets, 7);
  histogram_blocks(n, block, num_buckets, counts.data(), key);
  std::vector<size_t> totals(num_buckets, 0);
  for (size_t b = 0; b < num_blocks; ++b)
    for (size_t k = 0; k < num_buckets; ++k)
      totals[k] += counts[b * num_buckets + k];
  return totals;
}

class HistogramSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(HistogramSizes, MatchesSequentialCount) {
  size_t n = GetParam();
  constexpr size_t kBuckets = 97;
  std::vector<uint32_t> v(n);
  rng r(n + 41);
  for (auto& x : v) x = static_cast<uint32_t>(r.next_below(kBuckets));
  auto got = column_totals(n, kBuckets,
                           [&](size_t i) { return static_cast<size_t>(v[i]); });
  std::vector<size_t> want(kBuckets, 0);
  for (uint32_t x : v) want[x]++;
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(AcrossSizes, HistogramSizes,
                         ::testing::Values(0, 1, 100, 4096, 100000, 1000003));

TEST(Histogram, SingleBucket) {
  auto got = column_totals(50000, 1, [](size_t) { return size_t{0}; });
  EXPECT_EQ(got, std::vector<size_t>{50000});
}

TEST(Histogram, EmptyBucketsStayZero) {
  auto got = column_totals(10000, 16, [](size_t) { return size_t{7}; });
  for (size_t k = 0; k < 16; ++k)
    EXPECT_EQ(got[k], k == 7 ? 10000u : 0u) << k;
}

TEST(Histogram, ManyBucketsFewElements) {
  std::vector<size_t> v = {5, 70000, 5};
  auto got = column_totals(v.size(), 1 << 17, [&](size_t i) { return v[i]; });
  EXPECT_EQ(got[5], 2u);
  EXPECT_EQ(got[70000], 1u);
}

}  // namespace
}  // namespace parsemi
