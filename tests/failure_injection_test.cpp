// Failure-injection tests: force every Las-Vegas escape hatch of the CAS
// reference path — bucket overflow (Corollary 3.4's unlikely event),
// sentinel clashes, exhausted retries — and hash collisions in the general
// API, and verify the algorithm recovers with a correct result rather than
// crashing or corrupting. The overflow-recovery path is property-based
// (random undersized configurations, under perturbed schedules, shrunk on
// failure); the exact-injection cases stay as deterministic regressions,
// some looped over schedule-fuzz seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/semisort.h"
#include "proptest.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// ------------------------------------------------------ overflow recovery

struct overflow_config {
  size_t n = 0;
  uint64_t vocab = 1;  // kept ≤ n/100 so true group sizes dwarf capacity
  double alpha = 0.02;
  uint64_t data_seed = 0;
  uint64_t sched_seed = 0;
  int workers = 0;
};

std::string describe(const overflow_config& c) {
  std::ostringstream os;
  os << "n=" << c.n << " vocab=" << c.vocab << " alpha=" << c.alpha
     << " data_seed=" << c.data_seed << " sched_seed=" << c.sched_seed
     << " workers=" << c.workers;
  return os.str();
}

overflow_config generate(rng& r) {
  overflow_config c;
  c.n = 20000 + proptest::log_uniform_u64(r, 1, 100000);
  c.vocab = 1 + r.next_below(c.n / 100);
  c.alpha = proptest::uniform_real(r, 0.005, 0.03);
  c.data_seed = r.next();
  c.sched_seed = sched_fuzz::kCompiledIn ? (r.next() | 1) : 0;
  c.workers = proptest::pick(r, {0, 2, 4});
  return c;
}

std::vector<overflow_config> shrink(const overflow_config& c) {
  std::vector<overflow_config> out;
  if (c.sched_seed != 0) {
    overflow_config d = c;
    d.sched_seed = 0;
    out.push_back(d);
  }
  if (c.workers != 1) {
    overflow_config d = c;
    d.workers = 1;
    out.push_back(d);
  }
  for (uint64_t nn : proptest::shrink_toward(c.n, 20000)) {
    overflow_config d = c;
    d.n = nn;
    d.vocab = std::min<uint64_t>(d.vocab, std::max<uint64_t>(1, d.n / 100));
    out.push_back(d);
  }
  for (uint64_t vv : proptest::shrink_toward(c.vocab, 1)) {
    overflow_config d = c;
    d.vocab = vv == 0 ? 1 : vv;
    out.push_back(d);
  }
  return out;
}

std::optional<std::string> overflow_recovers(const overflow_config& c) {
  proptest::scoped_workers w(c.workers);
  sched_fuzz::scoped_enable fuzz(c.sched_seed);
  // α far below 1 makes first-attempt capacities smaller than the true
  // counts, guaranteeing at least one overflow → retry with doubled α.
  semisort_params params;
  params.scatter_with = semisort_params::scatter_strategy::cas;
  params.alpha = c.alpha;
  params.round_to_pow2 = false;
  params.max_retries = 12;
  semisort_stats stats;
  params.stats = &stats;

  auto in = generate_records(c.n, {distribution_kind::uniform, c.vocab},
                             c.data_seed);
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  if (!testing::valid_semisort(out, in)) return "result invalid after retry";
  if (stats.restarts < 1) {
    return "no restart happened — injection did not fire";
  }
  return std::nullopt;
}

TEST(FailureInjection, UndersizedBucketsTriggerRetryAndStillSucceed) {
  proptest::options opt;
  opt.trials = 10;
  opt.seed = 16180339;
  proptest::check<overflow_config>(generate, overflow_recovers, shrink,
                                   describe, opt);
}

// -------------------------------------------------- deterministic regressions

TEST(FailureInjection, ExhaustedRetriesFallBackToExactPath) {
  // A pinned-CAS run whose every attempt overflows ends in the exact-count
  // path, which cannot overflow: the call returns a valid semisort instead
  // of throwing, copying and in place, with and without schedule fuzz.
  for (uint64_t fuzz_seed : {0ull, 4242ull}) {
    sched_fuzz::scoped_enable fuzz(sched_fuzz::kCompiledIn ? fuzz_seed : 0);
    semisort_params params;
    params.scatter_with = semisort_params::scatter_strategy::cas;
    params.alpha = 0.001;
    params.round_to_pow2 = false;
    params.max_retries = 0;
    semisort_stats stats;
    params.stats = &stats;
    phase_timer timings;
    params.timings = &timings;
    auto in = generate_records(100000, {distribution_kind::uniform, 100}, 2);
    std::vector<record> out(in.size());
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_TRUE(testing::valid_semisort(out, in)) << "fuzz " << fuzz_seed;
    EXPECT_EQ(stats.restarts, 1) << "fuzz " << fuzz_seed;
    EXPECT_EQ(stats.scatter_path_used, scatter_path::blocked);
    EXPECT_EQ(stats.plan.scatter, scatter_path::cas);
    EXPECT_EQ(stats.total_slots, in.size());
    // Only the final attempt's laps survive.
    EXPECT_EQ(timings.phases().size(), 4u);

    std::vector<record> data = in;
    params.max_retries = 2;
    semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
    EXPECT_TRUE(testing::valid_semisort(data, in)) << "fuzz " << fuzz_seed;
    EXPECT_EQ(stats.restarts, 3) << "fuzz " << fuzz_seed;
  }
}

TEST(FailureInjection, SentinelClashRetriesTransparently) {
  // Seed the input with every plausible early sentinel so at least the
  // first attempt clashes. The sentinel for attempt k is derived from
  // (seed, k); recreate the derivation to inject exact clashes.
  for (uint64_t fuzz_seed : {0ull, 99ull}) {
    sched_fuzz::scoped_enable fuzz(
        sched_fuzz::kCompiledIn ? fuzz_seed : 0);
    semisort_params params;
    params.scatter_with = semisort_params::scatter_strategy::cas;
    params.seed = 12345;
    semisort_stats stats;
    params.stats = &stats;

    auto in = generate_records(50000, {distribution_kind::uniform, 500}, 3);
    rng attempt0(splitmix64(params.seed + 0x9e3779b9ULL * 0));
    uint64_t sentinel0 = attempt0.split(2).next() | 1;
    in[100].key = sentinel0;
    in[40000].key = sentinel0;

    std::vector<record> out(in.size());
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    EXPECT_TRUE(testing::valid_semisort(out, in)) << "fuzz " << fuzz_seed;
    EXPECT_GE(stats.restarts, 1) << "fuzz " << fuzz_seed;
  }
}

TEST(FailureInjection, GeneralApiSurvivesColludingHashFunction) {
  // A deliberately terrible hash (100 distinct keys → 8 hash values) forces
  // collisions between distinct keys; the collision-repair pass must
  // regroup each collided run by real key equality.
  for (uint64_t fuzz_seed : {0ull, 7ull}) {
    sched_fuzz::scoped_enable fuzz(
        sched_fuzz::kCompiledIn ? fuzz_seed : 0);
    std::vector<int> values;
    for (int i = 0; i < 30000; ++i) values.push_back(i % 100);
    auto out = semisort(std::span<const int>(values), [](int v) { return v; },
                        [](int v) { return static_cast<uint64_t>(v % 8); });
    ASSERT_EQ(out.size(), values.size());
    EXPECT_TRUE(testing::is_semisorted(std::span<const int>(out), [](int v) {
      return static_cast<uint64_t>(v);
    })) << "fuzz " << fuzz_seed;
    std::vector<int> sorted_out(out), sorted_in(values);
    std::sort(sorted_out.begin(), sorted_out.end());
    std::sort(sorted_in.begin(), sorted_in.end());
    EXPECT_EQ(sorted_out, sorted_in) << "fuzz " << fuzz_seed;
  }
}

TEST(FailureInjection, GeneralApiSurvivesConstantHash) {
  // The degenerate extreme: every key hashes to the same value, so the
  // whole input is one collided run. The repair regroups it (at quadratic
  // local cost — acceptable for a pathological hash) and the contract
  // still holds.
  std::vector<int> values = {1, 2, 3, 4};
  for (int rep = 0; rep < 2000; ++rep) values.push_back(rep % 7);
  auto out = semisort(std::span<const int>(values), [](int v) { return v; },
                      [](int) { return uint64_t{42}; });
  ASSERT_EQ(out.size(), values.size());
  EXPECT_TRUE(testing::is_semisorted(std::span<const int>(out), [](int v) {
    return static_cast<uint64_t>(v);
  }));
}

TEST(FailureInjection, TimingsClearedAcrossRetries) {
  // After retries the breakdown must reflect the final (successful)
  // attempt only: exactly five phases, not 5 × attempts.
  semisort_params params;
  params.scatter_with = semisort_params::scatter_strategy::cas;
  params.alpha = 0.02;
  params.round_to_pow2 = false;
  params.max_retries = 12;
  phase_timer timings;
  params.timings = &timings;
  auto in = generate_records(80000, {distribution_kind::uniform, 1000}, 4);
  std::vector<record> out(in.size());
  semisort_stats stats;
  params.stats = &stats;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  ASSERT_GE(stats.restarts, 1);
  ASSERT_EQ(stats.scatter_path_used, scatter_path::cas);
  params.stats = nullptr;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_EQ(timings.phases().size(), 5u);
}

}  // namespace
}  // namespace parsemi
