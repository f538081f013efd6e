// Differential tests for the SIMD abstraction (util/simd.h) and the
// local-sort radix kernel (core/local_sort.h): every dispatched entry point
// must be bit-exact with its scalar reference in simd::scalar:: over
// property-generated inputs, the radix kernel must equal std::stable_sort
// record for record on every bucket shape, and the end-to-end engine must
// report per-phase widths that honor the stats contract in core/params.h.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/local_sort.h"
#include "core/semisort.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// ------------------------------------------------------------- match_key4

// Fill a synthetic slot array (stride bytes per record, key in the leading
// qword) with random keys, planting `needle` according to `plant_mask`.
template <size_t Stride>
std::vector<unsigned char> make_slots(rng& r, uint64_t needle,
                                      unsigned plant_mask) {
  std::vector<unsigned char> bytes(4 * Stride);
  for (unsigned lane = 0; lane < 4; ++lane) {
    uint64_t k = (plant_mask >> lane) & 1u ? needle : r.next();
    if (k == needle && !((plant_mask >> lane) & 1u)) k ^= 1;  // no accidents
    std::memcpy(bytes.data() + lane * Stride, &k, sizeof(k));
    // Payload bytes are noise the kernel must ignore.
    for (size_t b = sizeof(k); b < Stride; ++b)
      bytes[lane * Stride + b] = static_cast<unsigned char>(r.next());
  }
  return bytes;
}

template <size_t Stride>
void check_match_key4_all_masks() {
  rng r(Stride * 7919);
  const uint64_t needle = r.next();
  for (unsigned mask = 0; mask < 16; ++mask) {
    for (int rep = 0; rep < 64; ++rep) {
      auto slots = make_slots<Stride>(r, needle, mask);
      unsigned scalar_m =
          simd::scalar::match_key4(slots.data(), Stride, needle);
      unsigned dispatched_m = simd::match_key4<Stride>(slots.data(), needle);
      ASSERT_EQ(scalar_m, mask);
      ASSERT_EQ(dispatched_m, scalar_m)
          << "stride " << Stride << " mask " << mask;
    }
  }
}

TEST(SimdMatchKey4, Stride16DispatchedEqualsScalarOnEveryMask) {
  // 16 bytes = the key-CAS record layouts — the stride with a vector form.
  check_match_key4_all_masks<16>();
}

TEST(SimdMatchKey4, OtherStridesDispatchedEqualsScalar) {
  check_match_key4_all_masks<8>();
  check_match_key4_all_masks<24>();
  check_match_key4_all_masks<32>();
}

TEST(SimdMatchKey4, RandomInputsAgree) {
  rng r(11);
  for (int rep = 0; rep < 2000; ++rep) {
    std::array<uint64_t, 8> words;
    // Tiny alphabet so needle collisions with arbitrary lane subsets occur.
    for (auto& w : words) w = r.next_below(4);
    uint64_t needle = r.next_below(4);
    ASSERT_EQ(simd::match_key4<16>(words.data(), needle),
              simd::scalar::match_key4(words.data(), 16, needle));
  }
}

TEST(SimdMatchKey4, ProbeWidthFollowsTheTier) {
  // The stats contract: vector prescan only exists for 16-byte records;
  // everything else reports the 64-bit scalar tier.
  static_assert(simd::probe_width<16>() ==
                (simd::kEnabled ? simd::kWidthBits : 64));
  static_assert(simd::probe_width<24>() == 64);
  static_assert(simd::probe_width<8>() == 64);
}

// -------------------------------------------------- occupied_prefix_len

TEST(SimdOccupiedPrefix, ExhaustiveHolePositions) {
  // Records of 16 bytes; the first hole (sentinel key) walks every
  // position so every vector lane and the scalar tail are exercised.
  constexpr uint64_t sentinel = 0xDEADBEEFCAFEF00Dull;
  rng r(41);
  for (size_t count = 0; count <= 40; ++count) {
    for (size_t hole = 0; hole <= count; ++hole) {
      std::vector<record> slots(count);
      for (size_t i = 0; i < count; ++i) {
        uint64_t k = r.next();
        if (k == sentinel) k ^= 1;
        slots[i] = {i < hole ? k : sentinel, r.next()};
      }
      size_t expect = simd::scalar::occupied_prefix_len(
          slots.data(), sizeof(record), count, sentinel);
      ASSERT_EQ(expect, hole) << "count " << count;
      ASSERT_EQ(simd::occupied_prefix_len<sizeof(record)>(slots.data(), count,
                                                          sentinel),
                expect)
          << "count " << count << " hole " << hole;
    }
  }
  EXPECT_EQ(simd::occupied_prefix_len<16>(nullptr, 0, sentinel), 0u);
}

TEST(SimdHolePrefix, ExhaustiveRunEndPositions) {
  // The dual scan: a leading run of sentinels ending at every position.
  constexpr uint64_t sentinel = 0xDEADBEEFCAFEF00Dull;
  rng r(59);
  for (size_t count = 0; count <= 40; ++count) {
    for (size_t holes = 0; holes <= count; ++holes) {
      std::vector<record> slots(count);
      for (size_t i = 0; i < count; ++i) {
        uint64_t k = r.next();
        if (k == sentinel) k ^= 1;
        slots[i] = {i < holes ? sentinel : k, r.next()};
      }
      size_t expect = simd::scalar::hole_prefix_len(
          slots.data(), sizeof(record), count, sentinel);
      ASSERT_EQ(expect, holes) << "count " << count;
      ASSERT_EQ(simd::hole_prefix_len<sizeof(record)>(slots.data(), count,
                                                      sentinel),
                expect)
          << "count " << count << " holes " << holes;
    }
  }
  EXPECT_EQ(simd::hole_prefix_len<16>(nullptr, 0, sentinel), 0u);
}

TEST(SimdOccupiedPrefix, RandomOccupancyAgrees) {
  constexpr uint64_t sentinel = 7u;
  rng r(43);
  for (int rep = 0; rep < 1000; ++rep) {
    size_t count = r.next_below(50);
    std::vector<record> slots(count);
    // Dense-ish occupancy so prefixes of every length occur.
    for (auto& s : slots) s = {r.next_below(8), r.next()};
    ASSERT_EQ(simd::occupied_prefix_len<sizeof(record)>(slots.data(), count,
                                                        sentinel),
              simd::scalar::occupied_prefix_len(slots.data(), sizeof(record),
                                                count, sentinel));
  }
}

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
  rng r(71);
  semisort_params params;
  record_key get_key;
  for (size_t n = 2; n <= 96; ++n) {
    for (int trial = 0; trial < 200; ++trial) {
      auto keys = pattern_keys(key_pattern::alphabet5, n, r);
      std::vector<record> in(n);
      for (size_t i = 0; i < n; ++i) in[i] = {keys[i], i};
      std::vector<record> got = in;
      ASSERT_EQ(internal::sort_bucket(std::span<record>(got), get_key, params),
                simd::kEnabled);
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

// --------------------------------------------------- end-to-end width stats

bool valid_width(size_t w) {
  return w == 0 || w == 64 || w == 128 || w == 256;
}

TEST(SimdStats, EngineReportsContractualWidths) {
  // Exponential(1000): heavy keys AND many small light buckets, so the
  // radix local-sort kernel engages on every path, the CAS probe prescan and
  // pack on the CAS path, and the copy back on the in-place exact path.
  // The output must still be a correct semisort (the kernels change
  // schedules, never results), and every reported width must be one of
  // {0, 64, 128, 256}, bounded by the build's width.
  const size_t n = 200000;
  auto in = generate_records(n, {distribution_kind::exponential, 1000}, 17);
  auto check_widths = [](const semisort_stats& stats) {
    for (size_t w : {stats.simd_hash_width, stats.simd_scatter_width,
                     stats.simd_local_sort_width, stats.simd_pack_width}) {
      EXPECT_TRUE(valid_width(w)) << w;
      EXPECT_LE(w, simd::kWidthBits);
    }
    // The sampler always hashes.
    EXPECT_EQ(stats.simd_hash_width, simd::kWidthBits);
  };
  for (auto path : {semisort_params::scatter_strategy::cas,
                    semisort_params::scatter_strategy::blocked}) {
    std::vector<record> out(n);
    semisort_params params;
    params.scatter_with = path;
    semisort_stats stats;
    params.stats = &stats;
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_TRUE(testing::records_semisorted(std::span<const record>(out)));
    EXPECT_TRUE(testing::records_permutation(out, in));
    check_widths(stats);
    // The records are trivially copyable, so the CAS pack reports the
    // build's tier; the out-of-place exact path has no pack at all.
    bool cas = path == semisort_params::scatter_strategy::cas;
    EXPECT_EQ(stats.simd_pack_width, cas ? simd::kWidthBits : 0u);

    std::vector<record> data = in;
    semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
    EXPECT_TRUE(testing::records_semisorted(std::span<const record>(data)));
    check_widths(stats);
    EXPECT_EQ(stats.simd_pack_width, simd::kWidthBits);
  }
}

}  // namespace
}  // namespace parsemi
