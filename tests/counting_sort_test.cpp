// Tests for the stable parallel counting sort (the paper's §2 building
// block) and the distribution kernel under it: correctness vs the
// sequential reference, stability, the bucket-boundary output the radix
// sort relies on, rejection of out-of-range bucket ids, placement that
// does not depend on the worker count, and the stored-id form placing
// exactly as the recomputing one.
#include "primitives/counting_sort.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/arena.h"
#include "scheduler/scheduler.h"
#include "util/rng.h"

namespace parsemi {
namespace {

struct keyed {
  uint32_t key;
  uint32_t tag;  // original index, to check stability
  friend bool operator==(const keyed&, const keyed&) = default;
};

std::vector<keyed> random_input(size_t n, uint32_t num_buckets, uint64_t seed) {
  std::vector<keyed> v(n);
  rng r(seed);
  for (size_t i = 0; i < n; ++i)
    v[i] = {static_cast<uint32_t>(r.next_below(num_buckets)),
            static_cast<uint32_t>(i)};
  return v;
}

struct Case {
  size_t n;
  size_t buckets;
};

class CountingSortCases : public ::testing::TestWithParam<Case> {};

TEST_P(CountingSortCases, MatchesSequentialReference) {
  auto [n, buckets] = GetParam();
  auto in = random_input(n, static_cast<uint32_t>(buckets), n + buckets);
  std::vector<keyed> got(n), expected(n);
  auto key = [](const keyed& k) { return static_cast<size_t>(k.key); };
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), buckets, key);
  counting_sort_seq(std::span<const keyed>(in), std::span<keyed>(expected),
                    buckets, key);
  EXPECT_EQ(got, expected);
}

TEST_P(CountingSortCases, IsStable) {
  auto [n, buckets] = GetParam();
  auto in = random_input(n, static_cast<uint32_t>(buckets), n * 31 + buckets);
  std::vector<keyed> got(n);
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), buckets,
                [](const keyed& k) { return static_cast<size_t>(k.key); });
  for (size_t i = 1; i < n; ++i) {
    ASSERT_LE(got[i - 1].key, got[i].key);
    if (got[i - 1].key == got[i].key) {
      ASSERT_LT(got[i - 1].tag, got[i].tag) << "instability at " << i;
    }
  }
}

TEST_P(CountingSortCases, BucketStartsAreCorrect) {
  auto [n, buckets] = GetParam();
  auto in = random_input(n, static_cast<uint32_t>(buckets), n + 7 * buckets);
  std::vector<keyed> got(n);
  std::vector<size_t> starts;
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), buckets,
                [](const keyed& k) { return static_cast<size_t>(k.key); },
                &starts);
  ASSERT_EQ(starts.size(), buckets + 1);
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_EQ(starts.back(), n);
  for (size_t q = 0; q < buckets; ++q) {
    ASSERT_LE(starts[q], starts[q + 1]);
    for (size_t i = starts[q]; i < starts[q + 1]; ++i)
      ASSERT_EQ(got[i].key, q);
  }
}

TEST_P(CountingSortCases, KernelLayoutIsTheScanOfTheCounts) {
  auto [n, buckets] = GetParam();
  auto in = random_input(n, static_cast<uint32_t>(buckets), n + 3 * buckets);
  std::vector<size_t> expect(buckets + 1, 0);
  for (const keyed& k : in) expect[k.key + 1]++;
  for (size_t q = 1; q <= buckets; ++q) expect[q] += expect[q - 1];

  arena scratch;
  const keyed* src = in.data();
  std::vector<uint32_t> placed(n, UINT32_MAX);
  uint32_t* dst = placed.data();
  std::span<size_t> start = distribute_stable(
      n, buckets, [src](size_t i) { return static_cast<size_t>(src[i].key); },
      [dst](size_t i, size_t pos) { dst[pos] = static_cast<uint32_t>(i); },
      scratch);
  ASSERT_EQ(std::vector<size_t>(start.begin(), start.end()), expect);
  EXPECT_EQ(start.back(), n);
  // Every slot written once, in input order within each bucket.
  for (size_t q = 0; q < buckets; ++q) {
    for (size_t pos = start[q]; pos < start[q + 1]; ++pos) {
      ASSERT_LT(placed[pos], n);
      ASSERT_EQ(in[placed[pos]].key, q);
      if (pos > start[q]) {
        ASSERT_LT(placed[pos - 1], placed[pos]);
      }
    }
  }
}

TEST_P(CountingSortCases, OutOfRangeBucketIsRejectedBeforePlacing) {
  auto [n, buckets] = GetParam();
  if (n == 0) GTEST_SKIP() << "no index to corrupt";
  const size_t bad_ids[] = {buckets, SIZE_MAX, buckets + 1};
  const size_t positions[] = {0, n / 2, n - 1};
  for (size_t t = 0; t < 3; ++t) {
    auto in = random_input(n, static_cast<uint32_t>(buckets), n + t);
    size_t bad_at = positions[t];
    size_t bad_id = bad_ids[t];
    const keyed* src = in.data();
    for (bool store_ids : {false, true}) {
      std::atomic<size_t> placed{0};
      std::atomic<size_t>* placed_ptr = &placed;
      arena scratch;
      std::span<size_t> start = distribute_stable(
          n, buckets,
          [src, bad_at, bad_id](size_t i) {
            return i == bad_at ? bad_id : static_cast<size_t>(src[i].key);
          },
          [placed_ptr](size_t, size_t) {
            placed_ptr->fetch_add(1, std::memory_order_relaxed);
          },
          scratch, store_ids);
      EXPECT_TRUE(start.empty())
          << "bad id at " << bad_at << ", store_ids " << store_ids;
      EXPECT_EQ(placed.load(std::memory_order_relaxed), 0u)
          << "bad id at " << bad_at << ", store_ids " << store_ids;
    }

    // counting_sort reports the same key as an error and leaves out alone.
    in[bad_at].key = static_cast<uint32_t>(buckets);
    std::vector<keyed> got(n, keyed{0, 0});
    EXPECT_THROW(counting_sort(std::span<const keyed>(in),
                               std::span<keyed>(got), buckets,
                               [](const keyed& k) {
                                 return static_cast<size_t>(k.key);
                               }),
                 std::invalid_argument);
    EXPECT_EQ(got, std::vector<keyed>(n, keyed{0, 0}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AcrossShapes, CountingSortCases,
    ::testing::Values(Case{0, 4}, Case{1, 1}, Case{100, 2}, Case{1000, 256},
                      Case{4096, 256}, Case{100000, 256}, Case{100000, 3},
                      Case{50000, 1024}, Case{250000, 256}, Case{10000, 1},
                      Case{300, 5000}));

// The kernel's placement and layout on a skewed input — half the records
// share bucket 0, the rest spread over the others — at `workers` workers.
std::pair<std::vector<uint32_t>, std::vector<size_t>> distribute_skewed(
    size_t n, size_t buckets, int workers, bool store_ids) {
  std::vector<uint32_t> key(n);
  rng r(17);
  for (size_t i = 0; i < n; ++i)
    key[i] = r.next_below(2) == 0
                 ? 0u
                 : static_cast<uint32_t>(1 + r.next_below(buckets - 1));
  const uint32_t* src = key.data();
  std::vector<uint32_t> placed(n);
  std::vector<size_t> layout;
  uint32_t* dst = placed.data();
  worker_pool pool(workers);
  pool.run([&] {
    ASSERT_EQ(num_workers(), workers);
    arena scratch;
    std::span<size_t> start = distribute_stable(
        n, buckets, [src](size_t i) { return static_cast<size_t>(src[i]); },
        [dst](size_t i, size_t pos) { dst[pos] = static_cast<uint32_t>(i); },
        scratch, store_ids);
    layout.assign(start.begin(), start.end());
  });
  return {placed, layout};
}

TEST(CountingSort, PlacementIsIdenticalAtEveryWorkerCount) {
  // The 1-worker recomputing pass is the reference for every worker count,
  // with and without stored ids. Below 65,535 buckets the ids are kept
  // from the count pass; at and above it they do not fit in 16 bits and
  // the kernel recomputes them.
  const size_t n = 300000;
  for (size_t buckets : {size_t{2}, size_t{1001}, size_t{65534},
                         size_t{70000}}) {
    auto one = distribute_skewed(n, buckets, 1, false);
    ASSERT_EQ(one.second.size(), buckets + 1);
    for (int workers : {1, 2, 4}) {
      for (bool store_ids : {false, true}) {
        EXPECT_EQ(distribute_skewed(n, buckets, workers, store_ids), one)
            << buckets << " buckets, " << workers << " workers, store_ids "
            << store_ids;
      }
    }
  }
}

TEST(CountingSort, AllSameKey) {
  std::vector<keyed> in(50000, keyed{7, 0});
  for (size_t i = 0; i < in.size(); ++i) in[i].tag = static_cast<uint32_t>(i);
  std::vector<keyed> got(in.size());
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), 16,
                [](const keyed& k) { return static_cast<size_t>(k.key); });
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(got[i].key, 7u);
    ASSERT_EQ(got[i].tag, i);  // stability ⇒ identity permutation
  }
}

TEST(CountingSort, EmptyBucketsInMiddle) {
  std::vector<keyed> in;
  for (uint32_t i = 0; i < 1000; ++i) in.push_back({i % 2 == 0 ? 0u : 9u, i});
  std::vector<keyed> got(in.size());
  std::vector<size_t> starts;
  counting_sort(std::span<const keyed>(in), std::span<keyed>(got), 10,
                [](const keyed& k) { return static_cast<size_t>(k.key); },
                &starts);
  EXPECT_EQ(starts[1] - starts[0], 500u);
  for (size_t q = 1; q <= 9; ++q) EXPECT_EQ(starts[q], 500u) << q;
  EXPECT_EQ(starts[10] - starts[9], 500u);
}

}  // namespace
}  // namespace parsemi
