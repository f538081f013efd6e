// End-to-end tests for the public semisort API on the paper's record type.
#include "core/semisort.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

void check(const std::vector<record>& in, semisort_params params = {}) {
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(out, in));
}

TEST(Semisort, EmptyInput) {
  std::vector<record> in;
  check(in);
}

TEST(Semisort, SingleRecord) { check({{42, 7}}); }

TEST(Semisort, TwoRecordsSameKey) { check({{42, 1}, {42, 2}}); }

TEST(Semisort, TwoRecordsDifferentKeys) { check({{42, 1}, {43, 2}}); }

TEST(Semisort, OutputSizeMismatchThrows) {
  std::vector<record> in(10), out(9);
  EXPECT_THROW(semisort_hashed(std::span<const record>(in),
                               std::span<record>(out)),
               std::invalid_argument);
}

TEST(Semisort, BelowSequentialCutoff) {
  auto in = generate_records(100, {distribution_kind::uniform, 20}, 1);
  check(in);
}

TEST(Semisort, JustAboveSequentialCutoff) {
  auto in = generate_records(300, {distribution_kind::uniform, 20}, 2);
  check(in);
}

TEST(Semisort, ForcedParallelPathOnTinyInput) {
  semisort_params params;
  params.sequential_cutoff = 0;
  auto in = generate_records(50, {distribution_kind::uniform, 5}, 3);
  check(in, params);
}

TEST(Semisort, AllKeysEqual) {
  std::vector<record> in(200000);
  for (size_t i = 0; i < in.size(); ++i) in[i] = {0xabcdefULL, i};
  check(in);
}

TEST(Semisort, AllKeysDistinct) {
  std::vector<record> in(200000);
  for (size_t i = 0; i < in.size(); ++i) in[i] = {hash64(i), i};
  check(in);
}

TEST(Semisort, ExtremeKeyValues) {
  // 0 and ~0 are special internally (hash table sentinel, bit tricks).
  std::vector<record> in;
  for (size_t i = 0; i < 100000; ++i)
    in.push_back({i % 3 == 0 ? 0ULL : (i % 3 == 1 ? ~0ULL : hash64(i)), i});
  check(in);
}

TEST(Semisort, UniformDistribution) {
  check(generate_records(200000, {distribution_kind::uniform, 200000}, 4));
}

TEST(Semisort, HeavyUniformDistribution) {
  check(generate_records(200000, {distribution_kind::uniform, 10}, 5));
}

TEST(Semisort, ExponentialDistribution) {
  check(generate_records(200000, {distribution_kind::exponential, 200}, 6));
}

TEST(Semisort, ZipfianDistribution) {
  check(generate_records(200000, {distribution_kind::zipfian, 100000}, 7));
}

TEST(Semisort, KeysNearHeavyLightThreshold) {
  // Every key with multiplicity ≈ δ/p = 256: the worst case the paper
  // identifies (most keys straddle the heavy/light boundary).
  constexpr size_t kN = 256 * 800;
  std::vector<record> in(kN);
  for (size_t i = 0; i < kN; ++i) in[i] = {hash64(i / 256), i};
  check(in);
}

TEST(Semisort, KeysStraddlingRangeBoundaries) {
  // Adjacent hash values land in adjacent light ranges; groups must not
  // bleed across bucket boundaries.
  std::vector<record> in;
  for (size_t range = 0; range < 64; ++range) {
    uint64_t base_key = (range << 48);
    for (uint64_t d : {0ULL, 1ULL, (1ULL << 48) - 1})
      for (int rep = 0; rep < 30; ++rep)
        in.push_back({base_key + d, in.size()});
  }
  // pad with random records to exceed the cutoff comfortably
  auto pad = generate_records(50000, {distribution_kind::uniform, 1u << 30}, 8);
  in.insert(in.end(), pad.begin(), pad.end());
  check(in);
}

TEST(Semisort, ReturnsVectorOverload) {
  auto in = generate_records(50000, {distribution_kind::exponential, 50}, 9);
  auto out = semisort_hashed(std::span<const record>(in));
  EXPECT_TRUE(testing::valid_semisort(out, in));
}

TEST(Semisort, CustomGetKey) {
  // Semisort by payload instead of key.
  std::vector<record> in(100000);
  rng r(10);
  for (size_t i = 0; i < in.size(); ++i)
    in[i] = {i, hash64(r.next_below(100))};
  std::vector<record> out(in.size());
  auto by_payload = [](const record& rec) { return rec.payload; };
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  by_payload);
  EXPECT_TRUE(testing::is_semisorted(std::span<const record>(out), by_payload));
}

TEST(Semisort, DeterministicForFixedSeed) {
  auto in = generate_records(150000, {distribution_kind::zipfian, 10000}, 11);
  auto a = semisort_hashed(std::span<const record>(in));
  auto b = semisort_hashed(std::span<const record>(in));
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

TEST(Semisort, StatsAreFilled) {
  semisort_stats stats;
  semisort_params params;
  params.stats = &stats;
  auto in = generate_records(200000, {distribution_kind::exponential, 200}, 12);
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_EQ(stats.n, in.size());
  EXPECT_EQ(stats.sample_size, static_cast<size_t>(static_cast<double>(in.size()) * params.sampling_p));
  EXPECT_GT(stats.num_heavy_keys, 0u);  // λ=200 ⇒ many heavy keys
  EXPECT_GT(stats.heavy_records, in.size() / 2);
  EXPECT_GT(stats.total_slots, in.size() / 2);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_GT(stats.heavy_fraction(), 0.5);
  EXPECT_LT(stats.slots_per_record(), 16.0);
}

TEST(Semisort, TimingsCoverFivePhases) {
  phase_timer timings;
  semisort_params params;
  params.timings = &timings;
  auto in = generate_records(200000, {distribution_kind::uniform, 200000}, 13);
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  ASSERT_EQ(timings.phases().size(), 5u);
  EXPECT_EQ(timings.phases()[0].first, "sample and sort");
  EXPECT_EQ(timings.phases()[1].first, "construct buckets");
  EXPECT_EQ(timings.phases()[2].first, "scatter");
  EXPECT_EQ(timings.phases()[3].first, "local sort");
  EXPECT_EQ(timings.phases()[4].first, "pack");
  EXPECT_GT(timings.total(), 0.0);
}

TEST(Semisort, StatsPassGetsItsOwnLap) {
  // The stats pass runs between local sort and pack; its own lap keeps it
  // out of the pack phase.
  phase_timer timings;
  semisort_stats stats;
  semisort_params params;
  params.timings = &timings;
  params.stats = &stats;
  auto in = generate_records(200000, {distribution_kind::uniform, 200000}, 13);
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  ASSERT_EQ(timings.phases().size(), 6u);
  EXPECT_EQ(timings.phases()[3].first, "local sort");
  EXPECT_EQ(timings.phases()[4].first, "stats");
  EXPECT_EQ(timings.phases()[5].first, "pack");
}

TEST(Semisort, GeneralApiGroupsStringKeys) {
  std::vector<std::string> words;
  const char* base[] = {"apple", "pear", "plum", "fig", "apple", "fig"};
  for (int rep = 0; rep < 50000; ++rep)
    words.push_back(base[rep % 6] + std::string(rep % 3, 'x'));
  auto out = semisort(std::span<const std::string>(words),
                      [](const std::string& s) -> const std::string& { return s; },
                      [](const std::string& s) { return hash_string(s); });
  ASSERT_EQ(out.size(), words.size());
  // Contract: equal strings contiguous.
  std::unordered_set<std::string> closed;
  size_t i = 0;
  while (i < out.size()) {
    ASSERT_FALSE(closed.contains(out[i])) << out[i];
    closed.insert(out[i]);
    std::string current = out[i];
    while (i < out.size() && out[i] == current) ++i;
  }
}

TEST(Semisort, WideRecordsKeyCasPath) {
  // 48-byte records with a leading key word: the key-CAS path must copy
  // the 40 payload bytes without touching the atomic key word.
  struct wide {
    uint64_t key;
    uint64_t a, b, c, d, e;
  };
  static_assert(scatter_storage<wide>::kKeyCas);
  std::vector<wide> in(60000);
  rng r(77);
  for (size_t i = 0; i < in.size(); ++i) {
    uint64_t k = hash64(r.next_below(500));
    in[i] = {k, i, i * 2, i * 3, i * 4, i * 5};
  }
  std::vector<wide> out(in.size());
  semisort_hashed(std::span<const wide>(in), std::span<wide>(out),
                  [](const wide& w) { return w.key; });
  EXPECT_TRUE(testing::is_semisorted(std::span<const wide>(out),
                                     [](const wide& w) { return w.key; }));
  // Payload integrity: every record intact (checksum over all fields).
  auto checksum = [](const std::vector<wide>& v) {
    uint64_t h = 0;
    for (const auto& w : v)
      h ^= hash64(w.key ^ w.a ^ (w.b << 1) ^ (w.c << 2) ^ (w.d << 3) ^
                  (w.e << 4));
    return h;
  };
  EXPECT_EQ(checksum(in), checksum(out));
}

TEST(Semisort, GeneralApiCaseInsensitiveEquality) {
  // Custom Eq + matching hash: "Apple" and "apple" must group together.
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  };
  std::vector<std::string> words;
  const char* base[] = {"Apple", "apple", "APPLE", "Pear", "pear", "Fig"};
  for (int rep = 0; rep < 5000; ++rep) words.push_back(base[rep % 6]);
  auto out = semisort(
      std::span<const std::string>(words),
      [](const std::string& s) -> const std::string& { return s; },
      [&](const std::string& s) { return hash_string(lower(s)); },
      [&](const std::string& a, const std::string& b) {
        return lower(a) == lower(b);
      });
  ASSERT_EQ(out.size(), words.size());
  // Three equivalence classes, each contiguous.
  std::unordered_set<std::string> closed;
  size_t i = 0, classes = 0;
  while (i < out.size()) {
    std::string cls = lower(out[i]);
    ASSERT_FALSE(closed.contains(cls)) << cls;
    closed.insert(cls);
    ++classes;
    while (i < out.size() && lower(out[i]) == cls) ++i;
  }
  EXPECT_EQ(classes, 3u);
}

TEST(Semisort, GeneralApiIntKeysByValue) {
  std::vector<int> values;
  rng r(14);
  for (int i = 0; i < 100000; ++i)
    values.push_back(static_cast<int>(r.next_below(50)));
  auto out = semisort(std::span<const int>(values),
                      [](int v) { return v; },
                      [](int v) { return hash64(static_cast<uint64_t>(v)); });
  ASSERT_EQ(out.size(), values.size());
  EXPECT_TRUE(testing::is_semisorted(std::span<const int>(out),
                                     [](int v) { return static_cast<uint64_t>(v); }));
}

}  // namespace
}  // namespace parsemi
