// Stress for foreign callers sharing one pool: many submitter threads
// hammer ONE small shared pool through params.pool, under perturbed
// schedules, mixing the whole semisort pipeline with derived operators.
// An intake race, a lost wakeup, or a cross-call leak shows up here as a
// wrong result, a hang (ctest timeout), or a data race in the tsan ×
// stress CI lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/collect_reduce.h"
#include "core/group_by.h"
#include "core/pipeline_context.h"
#include "core/semisort.h"
#include "hashing/hash64.h"
#include "proptest.h"
#include "scheduler/sched_fuzz.h"
#include "scheduler/scheduler.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// One deliberately small pool shared by every trial: contention for three
// workers across up to six submitters is the interesting regime (the
// default pool would also be adopted by the gtest main thread — a
// standalone pool keeps every submitter foreign).
worker_pool& shared_pool() {
  static worker_pool pool(3);
  return pool;
}

struct pool_config {
  size_t n = 1000;
  uint64_t distinct = 100;
  int submitters = 2;
  uint64_t fuzz_seed = 0;  // 0 = schedule untouched
  uint64_t data_seed = 1;
};

pool_config generate(rng& r) {
  pool_config c;
  c.n = proptest::log_uniform_u64(r, 64, 40000);
  c.distinct = proptest::log_uniform_u64(r, 1, c.n);
  c.submitters = static_cast<int>(proptest::pick(r, {2, 3, 4, 6}));
  c.fuzz_seed = proptest::chance(r, 0.4) ? r.next() | 1 : 0;
  c.data_seed = r.next();
  return c;
}

std::string describe(const pool_config& c) {
  std::ostringstream os;
  os << "n=" << c.n << " distinct=" << c.distinct << " submitters="
     << c.submitters << " fuzz=" << c.fuzz_seed << " data=" << c.data_seed;
  return os.str();
}

std::vector<pool_config> shrink(const pool_config& c) {
  std::vector<pool_config> out;
  for (uint64_t n : proptest::shrink_toward(c.n, 64)) {
    pool_config d = c;
    d.n = n;
    d.distinct = std::min<uint64_t>(d.distinct, n);
    out.push_back(d);
  }
  if (c.submitters > 2) {
    pool_config d = c;
    d.submitters = 2;
    out.push_back(d);
  }
  if (c.fuzz_seed != 0) {
    pool_config d = c;
    d.fuzz_seed = 0;
    out.push_back(d);
  }
  return out;
}

// What one submitter thread does: run one of three workloads against the
// shared pool and verify its own result. Returns "" on success. Submitter
// index picks the workload, so every trial with ≥3 submitters exercises
// all of them concurrently on the same pool.
std::string run_submitter(const pool_config& c, int s, worker_pool& pool) {
  std::vector<record> rows(c.n);
  rng r(splitmix64(c.data_seed + static_cast<uint64_t>(s) * 1000003));
  for (size_t i = 0; i < c.n; ++i)
    rows[i] = {hash64(r.next_below(c.distinct)), r.next_below(1000)};
  auto counts = testing::key_counts(std::span<const record>(rows),
                                    record_key{});

  switch (s % 3) {
    case 0: {  // whole semisort pipeline with its own context
      std::vector<record> out(c.n);
      pipeline_context ctx;
      semisort_stats stats;
      semisort_params params;
      params.context = &ctx;
      params.stats = &stats;
      params.pool = &pool;
      semisort_hashed(std::span<const record>(rows), std::span<record>(out),
                      record_key{}, params);
      if (!testing::valid_semisort(out, rows)) return "semisort call wrong";
      if (stats.sequential_fallbacks != 0) return "call fell back sequential";
      return "";
    }
    case 1: {  // derived operator with its own context
      std::vector<uint64_t> keys(c.n);
      for (size_t i = 0; i < c.n; ++i) keys[i] = rows[i].key;
      pipeline_context ctx;
      semisort_params params;
      params.context = &ctx;
      params.pool = &pool;
      auto got = count_by_key(std::span<const uint64_t>(keys),
                              [](uint64_t k) { return k; }, std::equal_to<>{},
                              params);
      if (got.size() != counts.size()) return "wrong distinct-key count";
      for (const auto& [k, cnt] : got) {
        auto it = counts.find(k);
        if (it == counts.end() || it->second != cnt) return "wrong count";
      }
      return "";
    }
    default: {  // group_by on a call-local context
      semisort_stats stats;
      semisort_params params;
      params.stats = &stats;
      params.pool = &pool;
      auto g = group_by_hashed(std::span<const record>(rows), record_key{},
                               params);
      if (g.records.size() != rows.size()) return "group_by lost rows";
      if (g.num_groups() != counts.size()) return "wrong group count";
      for (size_t grp = 0; grp < g.num_groups(); ++grp) {
        auto span = g.group(grp);
        for (const record& rec : span)
          if (rec.key != span.front().key) return "mixed keys in a group";
        if (counts[span.front().key] != span.size())
          return "group size mismatch";
      }
      if (stats.sequential_fallbacks != 0) return "override fell back";
      return "";
    }
  }
}

std::optional<std::string> property(const pool_config& c) {
  sched_fuzz::scoped_enable fuzz(c.fuzz_seed);
  worker_pool& pool = shared_pool();

  std::vector<std::string> errors(static_cast<size_t>(c.submitters));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(c.submitters));
  for (int s = 0; s < c.submitters; ++s) {
    std::string* slot = &errors[static_cast<size_t>(s)];
    threads.emplace_back([&c, s, &pool, slot] {
      *slot = run_submitter(c, s, pool);
    });
  }
  for (auto& t : threads) t.join();
  if (pool.external_queue_depth() != 0) return "calls left in the intake";

  for (int s = 0; s < c.submitters; ++s) {
    if (!errors[static_cast<size_t>(s)].empty()) {
      std::ostringstream os;
      os << "submitter " << s << ": " << errors[static_cast<size_t>(s)];
      return os.str();
    }
  }
  if (shared_pool().sequential_fallbacks() != 0)
    return "shared pool counted a sequential fallback";
  return std::nullopt;
}

TEST(PoolStress, ConcurrentSubmittersOnOneSharedPool) {
  proptest::options opt;
  opt.trials = 20;
  opt.seed = 0x6A7E3A7E55ULL;
  proptest::check<pool_config>(generate, property, shrink, describe, opt);
}

}  // namespace
}  // namespace parsemi
