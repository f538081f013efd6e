// Differential tests for the SIMD abstraction (util/simd.h) and the
// local-sort radix kernel (core/local_sort.h): the record copy must equal
// an element loop, and the radix kernel must equal std::stable_sort record
// for record on every bucket shape.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/local_sort.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workloads/record.h"

namespace parsemi {
namespace {

// ------------------------------------------------------------ copy_records

TEST(SimdCopyRecords, TriviallyCopyableMatchesElementLoop) {
  rng r(31);
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{129}}) {
    std::vector<record> src(count);
    for (auto& rec : src) rec = {r.next(), r.next()};
    std::vector<record> dst(count, record{0, 0});
    simd::copy_records(dst.data(), src.data(), count);
    EXPECT_TRUE(std::equal(src.begin(), src.end(), dst.begin()));
  }
}

TEST(SimdCopyRecords, NonTrivialTypeUsesAssignment) {
  std::vector<std::string> src = {"alpha", "beta", "gamma"};
  std::vector<std::string> dst(3);
  simd::copy_records(dst.data(), src.data(), 3);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(src[0], "alpha");  // copied, not moved
}

// ------------------------------------------------------------ radix kernel

// Key patterns for the kernel, each aimed at one way it could go wrong.
enum class key_pattern {
  random,        // full-width keys: one level splits to near-singletons
  alphabet5,     // big all-equal groups, the stability case
  all_equal,     // the first scan finishes the bucket
  last_byte,     // only the lowest 8 bits differ
  shared_digit,  // two values at bit 40, then 28 random bits: the first
                 // digit splits two ways and both halves recurse
  top_and_low,   // the top bit plus the low 6 bits: the digits skip the
                 // 57 bits every key shares
  multiples,     // i * 1000, shuffled
};

constexpr key_pattern kPatterns[] = {
    key_pattern::random,       key_pattern::alphabet5,
    key_pattern::all_equal,    key_pattern::last_byte,
    key_pattern::shared_digit, key_pattern::top_and_low,
    key_pattern::multiples};

std::vector<uint64_t> pattern_keys(key_pattern p, size_t n, rng& r) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    switch (p) {
      case key_pattern::random: keys[i] = r.next(); break;
      case key_pattern::alphabet5: keys[i] = r.next_below(5); break;
      case key_pattern::all_equal: keys[i] = 0x5EEDull; break;
      case key_pattern::last_byte:
        keys[i] = 0xAABBCCDD11223300ull | r.next_below(256);
        break;
      case key_pattern::shared_digit:
        keys[i] = (r.next_below(2) << 40) | r.next_below(uint64_t{1} << 28);
        break;
      case key_pattern::top_and_low:
        keys[i] = (r.next_below(2) << 63) | r.next_below(64);
        break;
      case key_pattern::multiples: keys[i] = i * 1000; break;
    }
  }
  if (p == key_pattern::multiples) {
    for (size_t i = n; i > 1; --i)
      std::swap(keys[i - 1], keys[r.next_below(i)]);
  }
  return keys;
}

// Record layouts besides `record` (16 bytes, key first): a 12-byte record
// with a 4-byte-aligned split key, the 32-byte cap, and a key that is not
// the first field. None has padding, so memcmp compares them exactly.
struct rec12 {
  uint32_t key_lo, key_hi, payload;
};
struct rec32 {
  uint64_t key, payload[3];
};
struct key_second {
  uint64_t payload, key;
};
static_assert(sizeof(rec12) == 12 && sizeof(rec32) == 32);

struct rec12_key {
  uint64_t operator()(const rec12& r) const {
    return (uint64_t{r.key_hi} << 32) | r.key_lo;
  }
};
struct rec32_key {
  uint64_t operator()(const rec32& r) const { return r.key; }
};
struct key_second_key {
  uint64_t operator()(const key_second& r) const { return r.key; }
};

template <typename Record>
Record make_rec(uint64_t key, uint64_t tag) {
  if constexpr (std::is_same_v<Record, rec12>) {
    return {static_cast<uint32_t>(key), static_cast<uint32_t>(key >> 32),
            static_cast<uint32_t>(tag)};
  } else if constexpr (std::is_same_v<Record, rec32>) {
    return {key, {tag, ~tag, tag * 3}};
  } else if constexpr (std::is_same_v<Record, key_second>) {
    return {tag, key};
  } else {
    return {key, tag};
  }
}

template <typename Record, typename GetKey>
std::vector<Record> stable_reference(std::vector<Record> v, GetKey get_key) {
  std::stable_sort(v.begin(), v.end(), [&](const Record& a, const Record& b) {
    return get_key(a) < get_key(b);
  });
  return v;
}

template <typename Record>
bool same_records(const std::vector<Record>& a, const std::vector<Record>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Record)) == 0;
}

constexpr size_t kKernelSizes[] = {2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                                   12, 13, 14, 15, 16, 17, 95, 96, 1000,
                                   internal::kMsdStackMax};

// The kernel, called directly so it runs on both tiers, must equal
// std::stable_sort record for record on every size and key pattern.
template <typename Record, typename GetKey>
void check_kernel_matches_stable_sort(uint64_t seed) {
  rng r(seed);
  GetKey get_key;
  for (key_pattern p : kPatterns) {
    for (size_t n : kKernelSizes) {
      auto keys = pattern_keys(p, n, r);
      std::vector<Record> in(n);
      for (size_t i = 0; i < n; ++i)
        in[i] = make_rec<Record>(keys[i], i);
      std::vector<Record> got = in;
      internal::radix_bucket_sort(std::span<Record>(got), get_key);
      ASSERT_TRUE(same_records(got, stable_reference(in, get_key)))
          << "pattern " << static_cast<int>(p) << " n " << n;
    }
  }
}

TEST(RadixKernel, MatchesStableSortOn16ByteRecords) {
  check_kernel_matches_stable_sort<record, record_key>(47);
}

TEST(RadixKernel, MatchesStableSortOn12ByteRecords) {
  check_kernel_matches_stable_sort<rec12, rec12_key>(53);
}

TEST(RadixKernel, MatchesStableSortOn32ByteRecords) {
  check_kernel_matches_stable_sort<rec32, rec32_key>(59);
}

TEST(RadixKernel, MatchesStableSortWhenKeyIsNotFirst) {
  check_kernel_matches_stable_sort<key_second, key_second_key>(61);
}

TEST(RadixKernel, RecursionBoundsTheKeyReads) {
  // On the digit-sharing pattern the first digit splits a full bucket two
  // ways; without the recursion the insertion pass alone would make about
  // b²/8 moves. Every level reads each key three times (spread, count,
  // place), so the whole sort stays far inside 16 reads per record.
  struct counting_key {
    size_t calls = 0;
    uint64_t operator()(const record& rec) {
      ++calls;
      return rec.key;
    }
  };
  const size_t n = internal::kMsdStackMax;
  rng r(67);
  auto keys = pattern_keys(key_pattern::shared_digit, n, r);
  std::vector<record> in(n);
  for (size_t i = 0; i < n; ++i) in[i] = {keys[i], i};
  std::vector<record> got = in;
  counting_key get_key;
  internal::radix_bucket_sort(std::span<record>(got), get_key);
  EXPECT_LE(get_key.calls, 16 * n);
  EXPECT_TRUE(same_records(got, stable_reference(in, record_key{})));
}

TEST(RadixKernel, LocalSortIsStableOnTheAcceleratedTier) {
  // Through the engine's per-bucket dispatch. On the accelerated tier every
  // bucket of 2..kMsdStackMax 16-byte records takes the stable kernel; the
  // forced-scalar tier keeps std::sort, which guarantees key order only.
  static_assert(internal::radix_sortable<record>);
  static_assert(96 <= internal::kMsdStackMax);
  rng r(71);
  semisort_params params;
  ASSERT_EQ(params.local_sort, semisort_params::local_sort_algo::std_sort);
  record_key get_key;
  for (size_t n = 2; n <= 96; ++n) {
    for (int trial = 0; trial < 200; ++trial) {
      auto keys = pattern_keys(key_pattern::alphabet5, n, r);
      std::vector<record> in(n);
      for (size_t i = 0; i < n; ++i) in[i] = {keys[i], i};
      std::vector<record> got = in;
      internal::sort_bucket(std::span<record>(got), get_key, params);
      auto expect = stable_reference(in, get_key);
      if constexpr (simd::kEnabled) {
        ASSERT_TRUE(same_records(got, expect)) << "n " << n;
      } else {
        for (size_t i = 0; i < n; ++i) ASSERT_EQ(got[i].key, expect[i].key);
        ASSERT_TRUE(testing::records_permutation(got, in));
      }
    }
  }
}

}  // namespace
}  // namespace parsemi
