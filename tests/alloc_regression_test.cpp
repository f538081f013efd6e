// Proves the arena-backed memory plan's central promise: once a
// pipeline_context is warm, repeated semisorts through it perform ZERO heap
// allocations — across every phase, including stats and phase-timing
// instrumentation. Counted by replacing the global operator new, so any
// hidden std::vector, std::string, or make_unique anywhere in the pipeline
// fails this test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/collect_reduce.h"
#include "core/group_by.h"
#include "core/pipeline_context.h"
#include "core/semisort.h"
#include "scheduler/scheduler.h"
#include "test_helpers.h"
#include "util/timer.h"
#include "workloads/distributions.h"

namespace {
std::atomic<size_t> g_heap_allocs{0};
size_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace

// Replaceable global allocation functions ([new.delete]): every path into
// the heap bumps the counter. delete is not counted — the steady state is
// judged by allocations alone.
void* operator new(std::size_t sz) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  size_t align = std::max(sizeof(void*), static_cast<size_t>(al));
  if (posix_memalign(&p, align, sz ? sz : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
// GCC's -Wmismatched-new-delete fires at inlined call sites because it
// pairs these definitions against the *default* operator new, not the
// malloc/posix_memalign replacements above; free() is the correct partner
// for both replacement allocators.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace parsemi {
namespace {

TEST(AllocRegression, SteadyStateSemisortMakesZeroHeapAllocations) {
  size_t n = 120000;
  auto in = generate_records(n, {distribution_kind::exponential, 1000}, 42);
  std::vector<record> out(n);

  pipeline_context ctx;
  phase_timer timings;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.timings = &timings;
  params.stats = &stats;

  // Warm-up: grows the arena to the workload's footprint, spins up the
  // worker pool, interns the phase names.
  for (int round = 0; round < 3; ++round) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  }
  ASSERT_TRUE(testing::valid_semisort(out, in));
  ASSERT_GT(stats.peak_scratch_bytes, 0u);
  ASSERT_GT(stats.arena_allocs, 0u);
  ASSERT_EQ(stats.scatter_path_used, scatter_path::blocked);

  // Steady state: not one heap allocation across five full pipelines,
  // instrumentation included.
  size_t before = heap_allocs();
  for (int round = 0; round < 5; ++round) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  }
  size_t after = heap_allocs();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations leaked into the steady state";
  EXPECT_TRUE(testing::valid_semisort(out, in));
  // The memory plan stayed published throughout.
  EXPECT_GT(stats.peak_scratch_bytes, 0u);
  EXPECT_LE(stats.peak_scratch_bytes, stats.scratch_capacity_bytes);
}

TEST(AllocRegression, BudgetedSingleShardPathStaysZeroAlloc) {
  // A memory budget generous enough to fit the call must leave the
  // in-memory fast path untouched: the routing check (scratch model +
  // PARSEMI_MEMORY_BUDGET getenv probe) is allocation-free, and stats
  // report the run as exactly one shard.
  size_t n = 120000;
  auto in = generate_records(n, {distribution_kind::exponential, 1000}, 44);
  std::vector<record> out(n);

  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;
  params.memory_budget_bytes = size_t{16} << 30;  // fits easily: one shard

  for (int round = 0; round < 3; ++round) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  }
  size_t before = heap_allocs();
  for (int round = 0; round < 5; ++round) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  }
  size_t leaked = heap_allocs() - before;
  EXPECT_EQ(leaked, 0u)
      << leaked << " heap allocations on the budgeted single-shard path";
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_TRUE(testing::valid_semisort(out, in));
}

TEST(AllocRegression, WarmExactPathArenaStaysWithinTwiceItsPeak) {
  // The arena grows by appending blocks, so the order of a call's scratch
  // allocations decides how much capacity a warm context keeps. The
  // exact path's largest late allocation is the distribution kernel's
  // 16-bit id buffer; placed after the kernel's other arrays it costs one
  // extra block, placed first it strands earlier blocks.
  size_t n = 4'000'000;
  auto in = generate_records(n, {distribution_kind::exponential, 1000}, 46);
  std::vector<record> out(n);

  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;
  // The first call grows the arena; the second runs on it warm.
  for (int round = 0; round < 2; ++round) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  }
  ASSERT_EQ(stats.scatter_path_used, scatter_path::blocked);
  ASSERT_GT(stats.num_heavy_keys, 0u);
  EXPECT_LE(stats.scratch_capacity_bytes, 2 * stats.peak_scratch_bytes)
      << "capacity " << stats.scratch_capacity_bytes << " B, peak "
      << stats.peak_scratch_bytes << " B";
}

TEST(AllocRegression, PlanReuseStaysZeroAllocAndZeroProbe) {
  // Plan reuse is the zero-warm-alloc contract in its strongest form: the
  // plan is built once up front, every later call skips the probe entirely
  // (stats.plan.reused with zero probe passes), and the execution itself
  // allocates nothing once the shared context is warm.
  size_t n = 120000;
  auto in = generate_records(n, {distribution_kind::exponential, 1000}, 45);
  std::vector<record> out(n);

  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;

  semisort_plan plan =
      plan_semisort_hashed(std::span<const record>(in), record_key{}, params);
  params.plan = &plan;

  for (int round = 0; round < 3; ++round) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  }
  size_t before = heap_allocs();
  for (int round = 0; round < 5; ++round) {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  }
  size_t leaked = heap_allocs() - before;
  EXPECT_EQ(leaked, 0u)
      << leaked << " heap allocations on warm plan-reuse calls";
  EXPECT_TRUE(stats.plan.reused);
  EXPECT_EQ(stats.plan.probe_passes, 0u);
  EXPECT_EQ(stats.plan.probe_records, 0u);
  EXPECT_TRUE(testing::valid_semisort(out, in));
}

TEST(AllocRegression, EveryScatterPathZeroHeapAllocationsWhenWarm) {
  // The engine's blocked path provisions its count matrix from the same
  // arena — forcing each path (plus the env override's getenv probe) must
  // stay zero-alloc once the shared context has seen all of them.
  size_t n = 120000;
  auto in = generate_records(n, {distribution_kind::exponential, 1000}, 43);
  std::vector<record> out(n);

  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;

  constexpr semisort_params::scatter_strategy kStrategies[] = {
      semisort_params::scatter_strategy::cas,
      semisort_params::scatter_strategy::blocked,
      semisort_params::scatter_strategy::adaptive,
  };
  for (auto s : kStrategies) {  // warm every path's footprint
    params.scatter_with = s;
    for (int round = 0; round < 2; ++round) {
      semisort_hashed(std::span<const record>(in), std::span<record>(out),
                      record_key{}, params);
    }
  }
  for (auto s : kStrategies) {
    params.scatter_with = s;
    size_t before = heap_allocs();
    for (int round = 0; round < 3; ++round) {
      semisort_hashed(std::span<const record>(in), std::span<record>(out),
                      record_key{}, params);
    }
    size_t leaked = heap_allocs() - before;
    EXPECT_EQ(leaked, 0u) << leaked << " heap allocations on scatter strategy "
                          << static_cast<int>(s);
    EXPECT_TRUE(testing::valid_semisort(out, in));
  }
}

TEST(AllocRegression, SteadyStateInplaceSemisortMakesZeroHeapAllocations) {
  // In place, the exact path stages through an arena buffer and copies
  // back; the pinned CAS path packs out of its slot array. Both stay
  // zero-alloc once warm.
  size_t n = 100000;
  auto base_input =
      generate_records(n, {distribution_kind::uniform, 1u << 24}, 7);
  std::vector<record> data(n);

  for (auto s : {semisort_params::scatter_strategy::adaptive,
                 semisort_params::scatter_strategy::cas}) {
    pipeline_context ctx;
    semisort_stats stats;
    semisort_params params;
    params.context = &ctx;
    params.stats = &stats;
    params.scatter_with = s;

    for (int round = 0; round < 3; ++round) {
      std::copy(base_input.begin(), base_input.end(), data.begin());
      semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
    }
    size_t before = heap_allocs();
    for (int round = 0; round < 5; ++round) {
      std::copy(base_input.begin(), base_input.end(), data.begin());
      semisort_hashed_inplace(std::span<record>(data), record_key{}, params);
    }
    EXPECT_EQ(heap_allocs() - before, 0u) << "scatter strategy "
                                          << static_cast<int>(s);
    EXPECT_TRUE(testing::valid_semisort(data, base_input));
    EXPECT_EQ(stats.scatter_path_used,
              s == semisort_params::scatter_strategy::cas
                  ? scatter_path::cas
                  : scatter_path::blocked);
  }
}

TEST(AllocRegression, DerivedOperatorAllocatesOnlyItsResults) {
  // group_by_index runs the tag spine on the shared context; in steady
  // state its only heap allocations are the two result vectors it returns.
  size_t n = 80000;
  auto in = generate_records(n, {distribution_kind::zipfian, 3000}, 9);

  pipeline_context ctx;
  semisort_params params;
  params.context = &ctx;

  for (int round = 0; round < 3; ++round) {
    auto g = group_by_index(std::span<const record>(in), record_key{}, params);
    ASSERT_GT(g.num_groups(), 0u);
  }
  size_t before = heap_allocs();
  auto g = group_by_index(std::span<const record>(in), record_key{}, params);
  size_t delta = heap_allocs() - before;
  EXPECT_GT(g.num_groups(), 0u);
  // order + group_start (and nothing proportional to the pipeline): a
  // handful of allocations, not hundreds.
  EXPECT_LE(delta, 8u) << delta << " heap allocations for one group_by_index";
}

TEST(AllocRegression, CountingDispatchPathsZeroHeapAllocationsWhenWarm) {
  // The front-end dispatch's counting kernels (core/dispatch.h) provision
  // count matrices, offsets, and staging buffers from the same arena as the
  // general pipeline. Forcing each dispatch strategy — across both the
  // one-pass tier (width ≤ 2^16) and the two-pass radix tier — must stay
  // zero-alloc once the shared context is warm.
  size_t n = 150000;
  // One-pass tier: dense domain of width 50000 < 2^16.
  auto narrow = generate_records_raw(n, {distribution_kind::uniform, 50000}, 5);
  // Two-pass radix tier: width 100000 > 2^16 (and < 2n, so still eligible).
  auto wide = generate_records_raw(n, {distribution_kind::uniform, 100000}, 6);
  std::vector<record> out(n);

  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;

  constexpr semisort_params::dispatch_strategy kStrategies[] = {
      semisort_params::dispatch_strategy::counting,
      semisort_params::dispatch_strategy::adaptive,
  };
  for (auto s : kStrategies) {  // warm every path × tier footprint
    params.dispatch_with = s;
    for (int round = 0; round < 2; ++round) {
      semisort_hashed(std::span<const record>(narrow), std::span<record>(out),
                      record_key{}, params);
      semisort_hashed(std::span<const record>(wide), std::span<record>(out),
                      record_key{}, params);
    }
  }
  for (auto s : kStrategies) {
    params.dispatch_with = s;
    size_t before = heap_allocs();
    for (int round = 0; round < 3; ++round) {
      semisort_hashed(std::span<const record>(narrow), std::span<record>(out),
                      record_key{}, params);
      EXPECT_NE(stats.dispatch_path_used, dispatch_path::general);
      semisort_hashed(std::span<const record>(wide), std::span<record>(out),
                      record_key{}, params);
      EXPECT_NE(stats.dispatch_path_used, dispatch_path::general);
    }
    size_t leaked = heap_allocs() - before;
    EXPECT_EQ(leaked, 0u) << leaked
                          << " heap allocations on dispatch strategy "
                          << static_cast<int>(s);
    EXPECT_TRUE(testing::valid_semisort(out, wide));
  }
}

TEST(AllocRegression, CountByKeyOffsetsAllocatesOnlyTheResult) {
  // The offset-only count_by_key never materializes grouped data: in steady
  // state its only heap allocation is the result vector itself.
  size_t n = 100000;
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = (i * 31) % 1000;

  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;
  auto identity = [](uint64_t k) { return k; };

  for (int round = 0; round < 3; ++round) {
    auto counts = count_by_key(std::span<const uint64_t>(keys), identity,
                               std::equal_to<>{}, params);
    ASSERT_EQ(counts.size(), 1000u);
  }
  size_t before = heap_allocs();
  auto counts = count_by_key(std::span<const uint64_t>(keys), identity,
                             std::equal_to<>{}, params);
  size_t delta = heap_allocs() - before;
  EXPECT_EQ(stats.dispatch_path_used, dispatch_path::offsets);
  EXPECT_EQ(counts.size(), 1000u);
  // The result vector (and nothing proportional to n).
  EXPECT_LE(delta, 4u) << delta << " heap allocations for one count_by_key";
}

TEST(AllocRegression, WarmForeignPoolCallsMakeZeroHeapAllocations) {
  // A foreign caller's params.pool call ships the pipeline through
  // worker_pool::run, whose job and completion signal live on the
  // caller's stack, so once the pool and the pipeline_context are warm, a
  // full submit → execute → wait round trip allocates nothing.
  size_t n = 100000;
  auto in = generate_records(n, {distribution_kind::exponential, 1000}, 11);
  std::vector<record> out(n);

  worker_pool pool(4);
  ASSERT_FALSE(pool.contains_current_thread());
  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;
  params.pool = &pool;

  auto call = [&] {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  };
  for (int round = 0; round < 3; ++round) call();  // warm everything

  size_t before = heap_allocs();
  for (int round = 0; round < 3; ++round) call();
  size_t leaked = heap_allocs() - before;
  EXPECT_EQ(leaked, 0u)
      << leaked << " heap allocations on warm foreign params.pool calls";
  EXPECT_EQ(stats.sequential_fallbacks, 0u);
  EXPECT_TRUE(testing::valid_semisort(out, in));
}

}  // namespace
}  // namespace parsemi
