// Randomized differential testing, property-based: the parallel semisort
// against the sequential chained-hash reference over randomly drawn
// (distribution, size, parameter-knob, worker-count, sched-fuzz-seed)
// configurations. On failure the config is shrunk greedily (smaller n,
// fuzzing off, one worker, knobs back to defaults) and a one-line repro
// command is printed — see tests/proptest.h.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <vector>

#include "core/semisort.h"
#include "core/sequential.h"
#include "proptest.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

struct diff_config {
  size_t n = 0;
  distribution_spec spec{distribution_kind::uniform, 1000};
  semisort_params params;
  bool use_context = false;
  size_t memory_budget = 0;  // 0 = unlimited; else forces the shard driver
  uint64_t data_seed = 0;
  uint64_t sched_seed = 0;  // 0 = schedule fuzzing off
  int workers = 0;          // 0 = leave pool untouched
};

distribution_spec random_spec(rng& r) {
  auto kind = static_cast<distribution_kind>(r.next_below(3));
  uint64_t param = 0;
  switch (kind) {
    case distribution_kind::uniform:
      param = 1 + r.next_below(1ull << (1 + r.next_below(30)));
      break;
    case distribution_kind::exponential:
      param = 1 + r.next_below(1ull << (1 + r.next_below(20)));
      break;
    case distribution_kind::zipfian:
      param = 1 + r.next_below(1ull << (1 + r.next_below(27)));
      break;
  }
  return {kind, param};
}

semisort_params random_params(rng& r) {
  semisort_params p;
  p.sampling_p = 1.0 / static_cast<double>(1 << (2 + r.next_below(5)));
  p.delta = 2 + r.next_below(64);
  p.num_hash_ranges = 1ull << (3 + r.next_below(15));
  p.merge_light_buckets = r.next_below(2) == 0;
  p.round_to_pow2 = r.next_below(2) == 0;
  p.light_bucket_samples = 8 + r.next_below(256);
  p.alpha = 1.05 + r.next_double() * 0.5;
  p.probing = r.next_below(4) == 0 ? semisort_params::probe_strategy::random
                                   : semisort_params::probe_strategy::linear;
  p.scatter_with =
      static_cast<semisort_params::scatter_strategy>(r.next_below(3));
  p.local_sort = r.next_below(4) == 0
                     ? semisort_params::local_sort_algo::counting_by_naming
                     : semisort_params::local_sort_algo::std_sort;
  p.sample_sort_with =
      static_cast<semisort_params::sample_sorter>(r.next_below(2));
  p.pack_intervals = 1 + r.next_below(5000);
  p.seed = r.next();
  return p;
}

diff_config generate(rng& r) {
  diff_config c;
  c.n = 1000 + proptest::log_uniform_u64(r, 1, 120000);
  c.spec = random_spec(r);
  c.params = random_params(r);
  c.use_context = proptest::chance(r, 0.25);
  // ~30%: a budget of 32K..16M bytes — far under most drawn inputs'
  // footprint, so the sharded (out-of-core) route runs through the same
  // differential property as the in-memory path.
  if (proptest::chance(r, 0.3)) {
    c.memory_budget = size_t{1} << (15 + r.next_below(10));
  }
  c.data_seed = r.next();
  c.sched_seed = sched_fuzz::kCompiledIn ? (r.next() | 1) : 0;
  c.workers = proptest::pick(r, {0, 1, 2, 3, 4});
  return c;
}

std::string describe(const diff_config& c) {
  std::ostringstream os;
  os << c.spec.name() << "(" << c.spec.parameter << ") n=" << c.n
     << " p=" << c.params.sampling_p << " delta=" << c.params.delta
     << " ranges=" << c.params.num_hash_ranges
     << " merge=" << c.params.merge_light_buckets
     << " pow2=" << c.params.round_to_pow2 << " alpha=" << c.params.alpha
     << " probe=" << (c.params.probing == semisort_params::probe_strategy::random
                          ? "random"
                          : "linear")
     << " scatter=" << static_cast<int>(c.params.scatter_with)
     << " localsort=" << static_cast<int>(c.params.local_sort)
     << " samplesort=" << static_cast<int>(c.params.sample_sort_with)
     << " pack=" << c.params.pack_intervals << " ctx=" << c.use_context
     << " budget=" << c.memory_budget
     << " data_seed=" << c.data_seed << " sched_seed=" << c.sched_seed
     << " workers=" << c.workers;
  return os.str();
}

std::optional<std::string> hashed_agrees_with_reference(const diff_config& c) {
  proptest::scoped_workers w(c.workers);
  sched_fuzz::scoped_enable fuzz(c.sched_seed);
  pipeline_context ctx;
  semisort_params params = c.params;
  if (c.use_context) params.context = &ctx;
  params.memory_budget_bytes = c.memory_budget;

  auto in = generate_records(c.n, c.spec, c.data_seed);
  std::vector<record> out(c.n);
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  auto reference = semisort_seq_chained(std::span<const record>(in));

  if (!testing::records_semisorted(out)) return "output not semisorted";
  if (!testing::records_permutation(out, reference)) {
    return "output is not a permutation of the input";
  }
  // Group-size histograms must agree exactly.
  auto got = testing::key_counts(std::span<const record>(out), record_key{});
  auto want =
      testing::key_counts(std::span<const record>(reference), record_key{});
  if (got.size() != want.size()) return "distinct key count mismatch";
  for (auto& [k, cnt] : want) {
    if (got.at(k) != cnt) return "group size mismatch for a key";
  }
  return std::nullopt;
}

std::vector<diff_config> shrink(const diff_config& c) {
  std::vector<diff_config> out;
  auto with = [&](auto mutate) {
    diff_config d = c;
    mutate(d);
    out.push_back(d);
  };
  // Boldest first: drop the memory budget (proves the failure is not the
  // shard driver's), drop the schedule fuzzing (proves
  // schedule-independence), drop to one worker, then cut the input, then
  // reset knobs to defaults.
  if (c.memory_budget != 0) with([](diff_config& d) { d.memory_budget = 0; });
  if (c.sched_seed != 0) with([](diff_config& d) { d.sched_seed = 0; });
  if (c.workers != 1) with([](diff_config& d) { d.workers = 1; });
  for (uint64_t nn : proptest::shrink_toward(c.n, 1000)) {
    with([nn](diff_config& d) { d.n = nn; });
  }
  if (c.use_context) with([](diff_config& d) { d.use_context = false; });
  semisort_params dflt;
  if (c.params.probing != dflt.probing) {
    with([&](diff_config& d) { d.params.probing = dflt.probing; });
  }
  if (c.params.scatter_with != dflt.scatter_with) {
    with([&](diff_config& d) { d.params.scatter_with = dflt.scatter_with; });
  }
  if (c.params.local_sort != dflt.local_sort) {
    with([&](diff_config& d) { d.params.local_sort = dflt.local_sort; });
  }
  if (c.params.sample_sort_with != dflt.sample_sort_with) {
    with([&](diff_config& d) {
      d.params.sample_sort_with = dflt.sample_sort_with;
    });
  }
  if (c.params.merge_light_buckets != dflt.merge_light_buckets ||
      c.params.round_to_pow2 != dflt.round_to_pow2) {
    with([&](diff_config& d) {
      d.params.merge_light_buckets = dflt.merge_light_buckets;
      d.params.round_to_pow2 = dflt.round_to_pow2;
    });
  }
  if (c.params.sampling_p != dflt.sampling_p || c.params.delta != dflt.delta) {
    with([&](diff_config& d) {
      d.params.sampling_p = dflt.sampling_p;
      d.params.delta = dflt.delta;
    });
  }
  if (c.params.num_hash_ranges != dflt.num_hash_ranges ||
      c.params.light_bucket_samples != dflt.light_bucket_samples) {
    with([&](diff_config& d) {
      d.params.num_hash_ranges = dflt.num_hash_ranges;
      d.params.light_bucket_samples = dflt.light_bucket_samples;
    });
  }
  if (c.params.alpha != dflt.alpha || c.params.pack_intervals != dflt.pack_intervals) {
    with([&](diff_config& d) {
      d.params.alpha = dflt.alpha;
      d.params.pack_intervals = dflt.pack_intervals;
    });
  }
  for (uint64_t pp : proptest::shrink_toward(c.spec.parameter, 1)) {
    with([pp](diff_config& d) { d.spec.parameter = pp; });
  }
  return out;
}

TEST(Differential, RandomConfigurationsAgreeWithReference) {
  proptest::options opt;
  opt.trials = 30;
  opt.seed = 20260706;
  proptest::check<diff_config>(generate, hashed_agrees_with_reference, shrink,
                               describe, opt);
}

// ---- the hash-function-supplied general API against a plain sort ----

struct general_config {
  size_t n = 0;
  uint64_t vocab = 1;
  uint64_t data_seed = 0;
  uint64_t sched_seed = 0;
  int workers = 0;
};

std::optional<std::string> general_agrees_with_sort(const general_config& c) {
  proptest::scoped_workers w(c.workers);
  sched_fuzz::scoped_enable fuzz(c.sched_seed);
  rng r(c.data_seed);
  std::vector<uint64_t> values(c.n);
  for (auto& v : values) v = r.next_below(c.vocab);
  auto out = semisort(std::span<const uint64_t>(values),
                      [](uint64_t v) { return v; },
                      [](uint64_t v) { return hash64(v); });
  if (out.size() != c.n) return "output size mismatch";
  if (!testing::is_semisorted(std::span<const uint64_t>(out),
                              [](uint64_t v) { return v; })) {
    return "output not semisorted";
  }
  std::vector<uint64_t> sorted_out(out), sorted_in(values);
  std::sort(sorted_out.begin(), sorted_out.end());
  std::sort(sorted_in.begin(), sorted_in.end());
  if (sorted_out != sorted_in) return "output not a permutation of the input";
  return std::nullopt;
}

TEST(Differential, GeneralApiAgainstSortBaseline) {
  proptest::options opt;
  opt.trials = 12;
  opt.seed = 777;
  proptest::check<general_config>(
      [](rng& r) {
        general_config c;
        c.n = 500 + proptest::log_uniform_u64(r, 1, 40000);
        c.vocab = 1 + r.next_below(1 << 12);
        c.data_seed = r.next();
        c.sched_seed = sched_fuzz::kCompiledIn ? (r.next() | 1) : 0;
        c.workers = proptest::pick(r, {0, 1, 2, 4});
        return c;
      },
      general_agrees_with_sort,
      [](const general_config& c) {
        std::vector<general_config> out;
        if (c.sched_seed != 0) {
          general_config d = c;
          d.sched_seed = 0;
          out.push_back(d);
        }
        if (c.workers != 1) {
          general_config d = c;
          d.workers = 1;
          out.push_back(d);
        }
        for (uint64_t nn : proptest::shrink_toward(c.n, 500)) {
          general_config d = c;
          d.n = nn;
          out.push_back(d);
        }
        for (uint64_t vv : proptest::shrink_toward(c.vocab, 1)) {
          general_config d = c;
          d.vocab = vv;
          out.push_back(d);
        }
        return out;
      },
      [](const general_config& c) {
        std::ostringstream os;
        os << "n=" << c.n << " vocab=" << c.vocab
           << " data_seed=" << c.data_seed << " sched_seed=" << c.sched_seed
           << " workers=" << c.workers;
        return os.str();
      },
      opt);
}

}  // namespace
}  // namespace parsemi
