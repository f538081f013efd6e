// Stress for the front-end dispatch (core/dispatch.h): the full operator
// sweep from derived_ops_stress, but with *dense integer* keys so the
// counting / offsets paths actually engage — through ONE shared
// pipeline_context across all trials, under varying worker counts and
// perturbed schedules. Each trial forces one dispatch strategy; identity
// hashes route even the tag-spine operators (map_reduce, equi_join,
// group_aggregate, general semisort) through the counting sort, because the
// inner tag semisort sees the dense hash values. Runs in the asan × stress
// CI lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/collect_reduce.h"
#include "core/group_by.h"
#include "core/mapreduce.h"
#include "core/relational.h"
#include "core/semisort.h"
#include "hashing/hash64.h"
#include "proptest.h"
#include "scheduler/sched_fuzz.h"
#include "test_helpers.h"
#include "workloads/distributions.h"
#include "workloads/record.h"

namespace parsemi {
namespace {

using strategy = semisort_params::dispatch_strategy;

pipeline_context& shared_ctx() {
  static pipeline_context ctx;
  return ctx;
}

struct dsp_config {
  size_t n = 1000;
  uint64_t width = 100;  // dense key domain [base, base + width)
  uint64_t base = 0;
  int strat = 0;  // index into kStrategies
  int op = 0;     // 0..8, see property()
  int workers = 0;
  uint64_t fuzz_seed = 0;
  uint64_t data_seed = 1;
};

constexpr strategy kStrategies[] = {strategy::adaptive, strategy::counting,
                                    strategy::general};

dsp_config generate(rng& r) {
  dsp_config c;
  c.n = proptest::log_uniform_u64(r, 64, 60000);
  // Width straddles every dispatch tier: sub-64 (all-dense tiny), one-pass
  // counting (< 2^16), the two-pass radix tier (> 2^16 when 2n allows), and
  // ineligible (≥ 2n → forced strategies must fall back to general).
  c.width = proptest::log_uniform_u64(r, 1, 4 * c.n + 70000);
  c.base = r.next_below(2) ? 0 : r.next_below(1u << 20);
  c.strat = static_cast<int>(r.next_below(std::size(kStrategies)));
  c.op = static_cast<int>(r.next_below(9));
  c.workers = static_cast<int>(proptest::pick(r, {0, 0, 2, 4}));
  c.fuzz_seed = proptest::chance(r, 0.4) ? r.next() | 1 : 0;
  c.data_seed = r.next();
  return c;
}

std::string describe(const dsp_config& c) {
  std::ostringstream os;
  os << "op=" << c.op << " strat="
     << static_cast<int>(kStrategies[c.strat]) << " n=" << c.n
     << " width=" << c.width << " base=" << c.base
     << " workers=" << c.workers << " fuzz=" << c.fuzz_seed
     << " data=" << c.data_seed;
  return os.str();
}

std::vector<dsp_config> shrink(const dsp_config& c) {
  std::vector<dsp_config> out;
  for (uint64_t n : proptest::shrink_toward(c.n, 64)) {
    dsp_config d = c;
    d.n = n;
    out.push_back(d);
  }
  for (uint64_t w : proptest::shrink_toward(c.width, 1)) {
    dsp_config d = c;
    d.width = w;
    out.push_back(d);
  }
  if (c.base != 0) {
    dsp_config d = c;
    d.base = 0;
    out.push_back(d);
  }
  if (c.fuzz_seed != 0) {
    dsp_config d = c;
    d.fuzz_seed = 0;
    out.push_back(d);
  }
  if (c.workers != 0) {
    dsp_config d = c;
    d.workers = 0;
    out.push_back(d);
  }
  return out;
}

// Dense (key, value) rows: raw keys in [base, base + width) — NOT hashed.
std::vector<record> make_dense_rows(const dsp_config& c, uint64_t salt) {
  std::vector<record> rows(c.n);
  rng r(splitmix64(c.data_seed + salt));
  for (size_t i = 0; i < c.n; ++i)
    rows[i] = {c.base + r.next_below(std::max<uint64_t>(1, c.width)),
               r.next_below(1000)};
  return rows;
}

std::unordered_map<uint64_t, size_t> count_keys(std::span<const record> rows) {
  std::unordered_map<uint64_t, size_t> m;
  for (const auto& r : rows) m[r.key]++;
  return m;
}

std::optional<std::string> property(const dsp_config& c) {
  proptest::scoped_workers workers(c.workers);
  sched_fuzz::scoped_enable fuzz(c.fuzz_seed);
  semisort_params params;
  params.context = &shared_ctx();
  params.dispatch_with = kStrategies[c.strat];
  auto rows = make_dense_rows(c, 0);
  auto counts = count_keys(rows);
  auto identity = [](uint64_t k) { return k; };

  switch (c.op) {
    case 0: {  // semisort_hashed, copying + in-place
      semisort_stats stats;
      params.stats = &stats;
      std::vector<record> out(rows.size());
      semisort_hashed(std::span<const record>(rows), std::span<record>(out),
                      record_key{}, params);
      if (!testing::valid_semisort(out, std::span<const record>(rows)))
        return "copying semisort contract broken";
      if (stats.dispatch_path_used == dispatch_path::counting) {
        std::vector<record> ref(rows);
        std::stable_sort(
            ref.begin(), ref.end(),
            [](const record& a, const record& b) { return a.key < b.key; });
        if (out != ref) return "counting path not stable-sort identical";
      }
      std::vector<record> data(rows);
      semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
      if (!testing::valid_semisort(data, std::span<const record>(rows)))
        return "in-place semisort contract broken";
      return std::nullopt;
    }
    case 1: {  // group_by_hashed (in-place entry underneath)
      auto g = group_by_hashed(std::span<const record>(rows), record_key{},
                               params);
      if (g.records.size() != rows.size()) return "group_by_hashed lost rows";
      if (g.num_groups() != counts.size()) return "wrong group count";
      for (size_t grp = 0; grp < g.num_groups(); ++grp) {
        auto span = g.group(grp);
        for (const auto& r : span)
          if (r.key != span.front().key) return "mixed keys in a group";
        if (counts[span.front().key] != span.size())
          return "group size mismatch";
      }
      return std::nullopt;
    }
    case 2: {  // group_by_index — records never move
      auto g = group_by_index(std::span<const record>(rows), record_key{},
                              params);
      if (g.order.size() != rows.size()) return "order is not a permutation";
      std::vector<bool> seen(rows.size(), false);
      for (size_t i : g.order) {
        if (i >= rows.size() || seen[i]) return "order is not a permutation";
        seen[i] = true;
      }
      if (g.num_groups() != counts.size()) return "wrong group count";
      for (size_t grp = 0; grp < g.num_groups(); ++grp) {
        auto idx = g.group(grp);
        uint64_t key = rows[idx.front()].key;
        for (size_t i : idx)
          if (rows[i].key != key) return "mixed keys in a group";
        if (counts[key] != idx.size()) return "group size mismatch";
      }
      return std::nullopt;
    }
    case 3: {  // count_by_key — offsets path on dense integral keys
      std::vector<uint64_t> keys(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) keys[i] = rows[i].key;
      auto got = count_by_key(std::span<const uint64_t>(keys), identity,
                              std::equal_to<>{}, params);
      if (got.size() != counts.size()) return "wrong distinct-key count";
      for (auto& [k, cnt] : got) {
        auto it = counts.find(k);
        if (it == counts.end() || it->second != cnt) return "wrong count";
      }
      return std::nullopt;
    }
    case 4: {  // count_by_key with signed keys — ordered-mapping round trip
      std::vector<int64_t> keys(rows.size());
      for (size_t i = 0; i < rows.size(); ++i)
        keys[i] = static_cast<int64_t>(rows[i].key) -
                  static_cast<int64_t>(c.width / 2);
      std::unordered_map<int64_t, size_t> expect;
      for (int64_t k : keys) expect[k]++;
      auto got = count_by_key(
          std::span<const int64_t>(keys),
          [](int64_t k) { return hash64(static_cast<uint64_t>(k)); },
          std::equal_to<>{}, params);
      if (got.size() != expect.size()) return "wrong distinct-key count";
      for (auto& [k, cnt] : got) {
        auto it = expect.find(k);
        if (it == expect.end() || it->second != cnt)
          return "wrong signed count";
      }
      return std::nullopt;
    }
    case 5: {  // collect_reduce, identity hash → dense tags inside
      std::vector<std::pair<uint64_t, uint64_t>> pairs(rows.size());
      for (size_t i = 0; i < rows.size(); ++i)
        pairs[i] = {rows[i].key, rows[i].payload};
      std::unordered_map<uint64_t, uint64_t> expect;
      for (auto& [k, v] : pairs) expect[k] += v;
      auto got = collect_reduce(
          std::span<const std::pair<uint64_t, uint64_t>>(pairs), identity,
          [](uint64_t a, uint64_t b) { return a + b; }, uint64_t{0},
          std::equal_to<>{}, params);
      if (got.size() != expect.size()) return "wrong distinct-key count";
      for (auto& [k, v] : got) {
        auto it = expect.find(k);
        if (it == expect.end() || it->second != v) return "wrong reduced sum";
      }
      return std::nullopt;
    }
    case 6: {  // map_reduce emitting dense keys with an identity hash
      std::unordered_map<uint64_t, uint64_t> expect;
      for (const auto& r : rows) expect[r.key]++;
      auto got = map_reduce<record, uint64_t, uint64_t, uint64_t>(
          std::span<const record>(rows),
          [](const record& r, auto emit) { emit(r.key, uint64_t{1}); },
          identity,
          [](uint64_t acc, const uint64_t& v) { return acc + v; }, uint64_t{0},
          std::equal_to<>{}, params);
      if (got.size() != expect.size()) return "wrong distinct-key count";
      for (auto& [k, v] : got) {
        auto it = expect.find(k);
        if (it == expect.end() || it->second != v) return "wrong key count";
      }
      return std::nullopt;
    }
    case 7: {  // equi_join on dense keys — small groups keep output linear
      dsp_config jc = c;
      jc.width = std::max<uint64_t>(c.width, c.n / 8 + 1);
      auto left = make_dense_rows(jc, 1);
      auto right = make_dense_rows(jc, 2);
      auto lc = count_keys(left);
      auto rc = count_keys(right);
      size_t expect_rows = 0;
      for (auto& [k, cnt] : lc) {
        auto it = rc.find(k);
        if (it != rc.end()) expect_rows += cnt * it->second;
      }
      auto out = equi_join(
          std::span<const record>(left), std::span<const record>(right),
          [](const record& r) { return r.key; },
          [](const record& r) { return r.payload; },
          [](const record& r) { return r.key; },
          [](const record& r) { return r.payload; }, params);
      if (out.size() != expect_rows) return "wrong join cardinality";
      for (const auto& row : out) {
        if (lc.find(row.key) == lc.end() || rc.find(row.key) == rc.end())
          return "join row with unmatched key";
      }
      return std::nullopt;
    }
    default: {  // general semisort, identity hash over dense values
      std::vector<uint64_t> keys(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) keys[i] = rows[i].key;
      auto out = semisort(std::span<const uint64_t>(keys), identity, identity,
                          std::equal_to<>{}, params);
      if (out.size() != keys.size()) return "semisort lost elements";
      std::unordered_map<uint64_t, size_t> expect;
      for (uint64_t k : keys) expect[k]++;
      std::unordered_map<uint64_t, size_t> got;
      size_t runs = 0;
      for (size_t i = 0; i < out.size(); ++i) {
        if (i == 0 || out[i] != out[i - 1]) ++runs;
        got[out[i]]++;
      }
      if (got != expect) return "semisort changed the multiset";
      if (runs != expect.size()) return "equal keys not contiguous";
      return std::nullopt;
    }
  }
}

TEST(DispatchStress, AllPathsAllOperatorsSharedContext) {
  proptest::options opt;
  opt.trials = 24;
  opt.seed = 0xD15Ba7C4ULL;
  proptest::check<dsp_config>(generate, property, shrink, describe, opt);
}

}  // namespace
}  // namespace parsemi
