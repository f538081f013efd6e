// Tests for the 64-bit hash mixers: bijectivity spot checks, avalanche
// quality, byte/string hashing, and the seeded re-hash family.
#include "hashing/hash64.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace parsemi {
namespace {

TEST(Hash64, DistinctInputsNeverCollideInSample) {
  // The mixers are bijections; any collision would be a bug outright.
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; i < 200000; ++i) {
    auto [it, inserted] = seen.insert(hash64(i));
    ASSERT_TRUE(inserted) << i;
  }
}

TEST(Hash64, MurmurMixDistinct) {
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; i < 100000; ++i)
    ASSERT_TRUE(seen.insert(murmur_mix64(i)).second) << i;
}

double avalanche_bias(uint64_t (*h)(uint64_t), uint64_t seed) {
  // Flip each input bit; each output bit should flip with p ≈ 1/2.
  rng r(seed);
  constexpr int kTrials = 2000;
  double worst = 0;
  for (int bit = 0; bit < 64; ++bit) {
    int flips = 0;
    for (int t = 0; t < kTrials; ++t) {
      uint64_t x = r.next();
      uint64_t d = h(x) ^ h(x ^ (1ULL << bit));
      flips += std::popcount(d);
    }
    double rate = static_cast<double>(flips) / (kTrials * 64.0);
    worst = std::max(worst, std::abs(rate - 0.5));
  }
  return worst;
}

TEST(Hash64, SplitmixAvalanche) {
  EXPECT_LT(avalanche_bias([](uint64_t x) { return hash64(x); }, 1), 0.02);
}

TEST(Hash64, MurmurAvalanche) {
  EXPECT_LT(avalanche_bias([](uint64_t x) { return murmur_mix64(x); }, 2),
            0.02);
}

TEST(Hash64, SeededFamilyDiffersAcrossSeeds) {
  int same = 0;
  for (uint64_t x = 0; x < 1000; ++x)
    same += hash64_seeded(x, 1) == hash64_seeded(x, 2);
  EXPECT_EQ(same, 0);
}

TEST(Hash64, SeededIsDeterministic) {
  EXPECT_EQ(hash64_seeded(123, 9), hash64_seeded(123, 9));
}

TEST(HashBytes, EqualContentEqualHash) {
  std::string a = "hello world";
  std::string b = "hello world";
  EXPECT_EQ(hash_string(a), hash_string(b));
  EXPECT_EQ(hash_bytes(a.data(), a.size()), hash_string(b));
}

TEST(HashBytes, SensitiveToEveryByte) {
  std::string base = "the quick brown fox";
  uint64_t h = hash_string(base);
  for (size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] ^= 1;
    EXPECT_NE(hash_string(mutated), h) << "byte " << i;
  }
}

TEST(HashBytes, LengthMatters) {
  EXPECT_NE(hash_string("ab"), hash_string("abc"));
  // A literal "\0" decays to an empty C-string view; spell out the length
  // to genuinely compare "" against a one-NUL-byte string.
  EXPECT_NE(hash_string(""), hash_string(std::string_view("\0", 1)));
}

TEST(HashBytes, EmptyStringIsStable) {
  EXPECT_EQ(hash_string(""), hash_string(std::string_view{}));
}

TEST(HashBytes, WordChunkBoundaryLengthsAreDistinct) {
  // Lengths straddling the 8-byte chunk loop and the masked tail read:
  // 0 (no work), 7 (tail only), 8 (one chunk, empty tail), 9 (chunk +
  // 1-byte tail), 63/64 (many chunks, full/empty tail). All must hash
  // distinctly even over identical byte content.
  std::string base(64, 'x');
  std::unordered_set<uint64_t> seen;
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{63}, size_t{64}}) {
    ASSERT_TRUE(seen.insert(hash_bytes(base.data(), len)).second)
        << "length " << len << " collided with a shorter prefix";
  }
}

TEST(HashBytes, ZeroTailDoesNotAliasShorterBuffer) {
  // The masked tail read zero-extends; the length folded into the initial
  // state is what keeps "ab" distinct from "ab\0" (and every padded form).
  std::string ab = "ab";
  std::string padded("ab\0", 3);
  std::string padded8("ab\0\0\0\0\0\0", 8);
  EXPECT_NE(hash_bytes(ab.data(), ab.size()),
            hash_bytes(padded.data(), padded.size()));
  EXPECT_NE(hash_bytes(ab.data(), ab.size()),
            hash_bytes(padded8.data(), padded8.size()));
  EXPECT_NE(hash_bytes(padded.data(), padded.size()),
            hash_bytes(padded8.data(), padded8.size()));
}

TEST(HashBytes, UnalignedReadsMatchAligned) {
  // The chunk loop memcpys from arbitrary offsets; hashing the same bytes
  // from a shifted buffer must give the same value.
  std::string buf = "0123456789abcdefghijklmnopqrstuv";
  std::string shifted = "!" + buf;
  EXPECT_EQ(hash_bytes(buf.data(), buf.size()),
            hash_bytes(shifted.data() + 1, buf.size()));
}

TEST(HashBytes, FewCollisionsOnWords) {
  std::unordered_set<uint64_t> seen;
  size_t collisions = 0;
  for (int i = 0; i < 100000; ++i) {
    std::string word = "token-" + std::to_string(i * 7919);
    if (!seen.insert(hash_string(word)).second) ++collisions;
  }
  EXPECT_EQ(collisions, 0u);
}

}  // namespace
}  // namespace parsemi
