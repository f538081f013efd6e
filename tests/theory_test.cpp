// Empirical checks of the paper's analytical claims on the running
// implementation (complementing estimator_test's checks of f itself):
//   * Corollary 3.4 — with the default constants, bucket overflow is so
//     unlikely that restarts never occur in practice;
//   * Lemma 3.5 — total allocated bucket space is Θ(n) with a small
//     constant, across distribution shapes;
//   * the heavy/light classification matches its expectation: keys with
//     multiplicity well above δ/p are (almost) always classified heavy,
//     keys well below (almost) never.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

#include "core/semisort.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// Pins the paper's CAS scatter: the claims under test are about its
// α·f(s)-sized buckets, which the default exact-count path does not build
// (it sizes every bucket from exact counts, so it cannot overflow and uses
// one slot per record).
semisort_stats run_with_stats(const std::vector<record>& in, uint64_t seed) {
  semisort_stats stats;
  semisort_params params;
  params.seed = seed;
  params.stats = &stats;
  params.scatter_with = semisort_params::scatter_strategy::cas;
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_EQ(stats.scatter_path_used, scatter_path::cas);
  return stats;
}

TEST(Theory, Corollary34NoRestartsAtDefaultParameters) {
  // Overflow probability ≤ Θ(n^{1-c}/log²n) with c = 1.25 and α = 1.1 on
  // top; across 3 distribution classes × 10 seeds we expect zero restarts.
  for (auto spec : {distribution_spec{distribution_kind::uniform, 1u << 28},
                    distribution_spec{distribution_kind::exponential, 150},
                    distribution_spec{distribution_kind::zipfian, 30000}}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      auto in = generate_records(120000, spec, seed);
      auto stats = run_with_stats(in, seed * 7919);
      ASSERT_EQ(stats.restarts, 0)
          << spec.name() << "(" << spec.parameter << ") seed " << seed;
    }
  }
}

TEST(Theory, SampleSizeIsExactlyFloorNP) {
  for (size_t n : {100000ul, 123457ul}) {
    auto in = generate_records(n, {distribution_kind::uniform, 1000}, 1);
    auto stats = run_with_stats(in, 5);
    EXPECT_EQ(stats.sample_size, static_cast<size_t>(static_cast<double>(n) / 16.0)) << n;
  }
}

TEST(Theory, Lemma35SpaceIsLinearWithSmallConstant) {
  // Σ α·f(s_i) ≤ O(n): measured slots/record stays below a small constant
  // on every distribution shape, including the threshold-straddling worst
  // case and the all-distinct case where the additive term dominates.
  std::vector<distribution_spec> specs = {
      {distribution_kind::uniform, 1u << 30},   // all light
      {distribution_kind::uniform, 10},         // all heavy
      {distribution_kind::uniform, 500},        // near threshold (n/N=256ish)
      {distribution_kind::exponential, 128},
      {distribution_kind::zipfian, 128000},
  };
  for (auto spec : specs) {
    auto in = generate_records(128000, spec, 3);
    auto stats = run_with_stats(in, 11);
    EXPECT_LT(stats.slots_per_record(), 6.0)
        << spec.name() << "(" << spec.parameter << ")";
    EXPECT_GE(stats.slots_per_record(), 1.0);
  }
}

TEST(Theory, HeavyClassificationTracksMultiplicity) {
  constexpr size_t kN = 256 * 1024;  // δ/p = 256 is the expected threshold
  // Multiplicity 4096 = 16·(δ/p): essentially every record heavy.
  {
    std::vector<record> in(kN);
    for (size_t i = 0; i < kN; ++i) in[i] = {hash64(i / 4096), i};
    auto stats = run_with_stats(in, 21);
    EXPECT_GT(stats.heavy_fraction(), 0.999);
  }
  // Multiplicity 16 = (δ/p)/16: essentially no record heavy.
  {
    std::vector<record> in(kN);
    for (size_t i = 0; i < kN; ++i) in[i] = {hash64(i / 16), i};
    auto stats = run_with_stats(in, 22);
    EXPECT_LT(stats.heavy_fraction(), 0.001);
  }
  // Multiplicity exactly at the threshold: classification is genuinely
  // probabilistic — both classes must be populated. The records must be
  // SHUFFLED: with key j on the contiguous block [256j, 256j+256), the
  // strided sampler would hit every key exactly δ times deterministically
  // (each block tiles 16 whole strides) and classify everything heavy —
  // an instructive interaction between the §4 sampling scheme and block-
  // structured inputs.
  {
    std::vector<record> in(kN);
    for (size_t i = 0; i < kN; ++i) in[i] = {hash64(i / 256), i};
    rng shuffle_rng(99);
    for (size_t i = kN - 1; i > 0; --i)
      std::swap(in[i], in[shuffle_rng.next_below(i + 1)]);
    auto stats = run_with_stats(in, 23);
    EXPECT_GT(stats.heavy_fraction(), 0.05);
    EXPECT_LT(stats.heavy_fraction(), 0.95);
  }
}

TEST(Theory, HeavyKeyCountMatchesSampleMath) {
  // uniform(N) with n/N = 1024 expected multiplicity ⇒ every key should be
  // heavy and the number of heavy keys ≈ N.
  constexpr size_t kN = 1 << 20;
  constexpr uint64_t kDistinct = kN / 1024;
  auto in = generate_records(kN, {distribution_kind::uniform, kDistinct}, 9);
  auto stats = run_with_stats(in, 31);
  EXPECT_NEAR(static_cast<double>(stats.num_heavy_keys),
              static_cast<double>(kDistinct),
              0.02 * static_cast<double>(kDistinct));
}

}  // namespace
}  // namespace parsemi
