// Differential tests for the SIMD abstraction (util/simd.h): every
// dispatched entry point must be bit-exact with its scalar reference in
// simd::scalar:: over property-generated inputs, the compile-time sorting
// networks (core/local_sort.h) must sort every permutation (exhaustively
// for n <= 8, randomized and duplicate-heavy for 9..16) in agreement with
// std::stable_sort's key order, and the end-to-end engine must report
// per-phase widths that honor the stats contract in core/params.h.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <string>
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

// ---------------------------------------------------------- msd_byte_sort

void check_msd_sorts(std::vector<record> input) {
  std::vector<record> expect = input;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const record& a, const record& b) {
                     return a.key < b.key;
                   });
  std::vector<record> got = input;
  record_key get_key;
  if (got.size() <= internal::kMsdStackMax) {
    // In-contract sizes go through the engine's stack-scratch entry point.
    internal::msd_bucket_sort(std::span<record>(got), get_key);
  } else {
    // Above the entry point's cap (the engine dispatch routes such buckets
    // to introsort), drive the core byte passes with caller scratch to
    // test the algorithm at larger sizes too.
    size_t n = got.size();
    std::vector<uint64_t> keys(n), ktmp(n);
    std::vector<record> rtmp(n);
    for (size_t i = 0; i < n; ++i) keys[i] = get_key(got[i]);
    internal::msd_byte_sort(keys.data(), got.data(), n, 56, ktmp.data(),
                            rtmp.data());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, expect[i].key) << "at " << i;
  }
  ASSERT_TRUE(testing::records_permutation(got, input));
}

TEST(MsdByteSort, RandomFullWidthKeys) {
  rng r(47);
  for (size_t n : {size_t{17}, size_t{96}, size_t{100}, size_t{300},
                   size_t{1000}, size_t{4096}, size_t{6000}}) {
    std::vector<record> in(n);
    for (auto& rec : in) rec = {r.next(), r.next()};
    check_msd_sorts(std::move(in));
  }
}

TEST(MsdByteSort, DuplicateHeavyAndAdversarialKeys) {
  rng r(53);
  // Duplicate-heavy: the all-equal >16 groups terminate at shift 0.
  for (size_t n : {size_t{100}, size_t{512}}) {
    std::vector<record> dup(n);
    for (auto& rec : dup) rec = {r.next_below(5), r.next()};
    check_msd_sorts(std::move(dup));
  }
  // Keys differing only in the LAST byte: every level except the deepest
  // sees one giant group, forcing recursion through all 8 byte passes.
  std::vector<record> deep(200);
  for (auto& rec : deep) rec = {0xAABBCCDD11223300ull | r.next_below(256),
                                r.next()};
  check_msd_sorts(std::move(deep));
  // All equal.
  std::vector<record> equal(300, record{42, 0});
  for (auto& rec : equal) rec.payload = r.next();
  check_msd_sorts(std::move(equal));
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

// ------------------------------------------------------------------ cswap

TEST(SimdCswap, OrdersPairsAndKeepsPayloadsAttached) {
  uint64_t ka = 9, kb = 2;
  record ra{9, 100}, rb{2, 200};
  simd::cswap(ka, kb, ra, rb);
  EXPECT_EQ(ka, 2u);
  EXPECT_EQ(kb, 9u);
  EXPECT_EQ(ra, (record{2, 200}));
  EXPECT_EQ(rb, (record{9, 100}));
  // Already ordered (and the equal case): no movement.
  simd::cswap(ka, kb, ra, rb);
  EXPECT_EQ(ka, 2u);
  uint64_t kc = 5, kd = 5;
  record rc{5, 1}, rd{5, 2};
  simd::cswap(kc, kd, rc, rd);
  EXPECT_EQ(rc, (record{5, 1}));
  EXPECT_EQ(rd, (record{5, 2}));
}

// ------------------------------------------------------- sorting networks

TEST(SortingNetworks, SchedulesAreWellFormed) {
  const auto& nets = internal::kSortingNetworks;
  for (size_t n = 2; n <= internal::kNetworkMax; ++n) {
    size_t len = nets.len[n];
    ASSERT_GT(len, 0u) << n;
    ASSERT_LE(len, size_t{63}) << n;
    for (size_t e = 0; e < len; ++e) {
      ASSERT_LT(nets.net[n][e].a, nets.net[n][e].b) << n;
      ASSERT_LT(nets.net[n][e].b, n) << n;
    }
  }
  // Batcher's count for n = 16 is exactly 63 compare-exchanges.
  EXPECT_EQ(nets.len[16], 63u);
}

struct identity_key {
  uint64_t operator()(const record& r) const { return r.key; }
};

void check_network_sorts(std::vector<record> input) {
  const size_t n = input.size();
  std::vector<record> expect = input;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const record& a, const record& b) {
                     return a.key < b.key;
                   });
  identity_key get_key;
  internal::network_sort(input.data(), n, get_key);
  // The network is not stable, so compare the key sequence against
  // stable_sort's and the records as a multiset.
  for (size_t i = 0; i < n; ++i)
    ASSERT_EQ(input[i].key, expect[i].key) << "position " << i;
  ASSERT_TRUE(testing::records_permutation(input, expect));
}

TEST(SortingNetworks, EveryPermutationUpTo8Sorts) {
  // Exhaustive 0-1-principle-free proof for the small sizes: distinct keys,
  // every one of the n! input orders.
  for (size_t n = 2; n <= 8; ++n) {
    std::vector<uint64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    do {
      std::vector<record> in(n);
      for (size_t i = 0; i < n; ++i)
        in[i] = {perm[i] * 1000 + 5, perm[i]};
      check_network_sorts(std::move(in));
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(SortingNetworks, EveryDuplicatePatternUpTo5Sorts) {
  // Exhaustive over a 3-letter alphabet: all 3^n key tuples for n <= 5,
  // payloads tagged with position so multiset preservation is visible.
  for (size_t n = 2; n <= 5; ++n) {
    size_t tuples = 1;
    for (size_t i = 0; i < n; ++i) tuples *= 3;
    for (size_t t = 0; t < tuples; ++t) {
      std::vector<record> in(n);
      size_t code = t;
      for (size_t i = 0; i < n; ++i) {
        in[i] = {code % 3, i};
        code /= 3;
      }
      check_network_sorts(std::move(in));
    }
  }
}

TEST(SortingNetworks, RandomAndDuplicateHeavyInputs9To16) {
  rng r(47);
  for (size_t n = 9; n <= internal::kNetworkMax; ++n) {
    for (int rep = 0; rep < 400; ++rep) {
      std::vector<record> in(n);
      // Alternate full-width keys with a tiny alphabet (heavy duplicates —
      // the regime light buckets actually see).
      uint64_t alphabet = (rep % 2 == 0) ? ~uint64_t{0} : 3;
      for (size_t i = 0; i < n; ++i)
        in[i] = {alphabet == 3 ? r.next_below(3) : r.next(), i};
      check_network_sorts(std::move(in));
    }
  }
}

// --------------------------------------------------- end-to-end width stats

bool valid_width(size_t w) {
  return w == 0 || w == 64 || w == 128 || w == 256;
}

TEST(SimdStats, EngineReportsContractualWidths) {
  // Exponential(1000): heavy keys AND many small light buckets, so the
  // scatter, network local sort, and pack kernels all engage. The output
  // must still be a correct semisort (the kernels change schedules, never
  // results), and every reported width must be one of {0, 64, 128, 256},
  // bounded by the build's width.
  const size_t n = 200000;
  auto in = generate_records(n, {distribution_kind::exponential, 1000}, 17);
  std::vector<record> out(n);
  semisort_params params;
  semisort_stats stats;
  params.stats = &stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(testing::records_semisorted(std::span<const record>(out)));
  EXPECT_TRUE(testing::records_permutation(out, in));
  for (size_t w : {stats.simd_hash_width, stats.simd_scatter_width,
                   stats.simd_local_sort_width, stats.simd_pack_width}) {
    EXPECT_TRUE(valid_width(w)) << w;
    EXPECT_LE(w, simd::kWidthBits);
  }
  // The sampler always hashes and the records are trivially copyable, so
  // hash and pack must report the build's tier, not "no kernel".
  EXPECT_EQ(stats.simd_hash_width, simd::kWidthBits);
  EXPECT_EQ(stats.simd_pack_width, simd::kWidthBits);
}

}  // namespace
}  // namespace parsemi
