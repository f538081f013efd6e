// The instantiable-pool execution model, as a foreign thread sees it:
// `semisort_params::pool` and `worker_pool::run` ship whole pipelines onto
// a named pool, where they run with real pool parallelism (steals, zero
// sequential fallbacks); exceptions thrown inside `run` reach the caller;
// resizing a pool is refused while foreign work is queued or from inside
// it; and a thread foreign to every pool falls back to sequential
// execution, counted.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/collect_reduce.h"
#include "core/pipeline_context.h"
#include "core/semisort.h"
#include "scheduler/scheduler.h"
#include "test_helpers.h"
#include "workloads/distributions.h"

namespace parsemi {
namespace {

// Four foreign threads share ONE pool, each semisorting its own data
// concurrently through params.pool. Every call must come back correct,
// with the calls' subtasks stolen across the pool's workers (real
// parallelism, not the sequential fallback) and zero fallbacks counted
// anywhere.
TEST(PoolRouting, FourForeignThreadsShareOnePool) {
  worker_pool pool(8);
  constexpr int kSubmitters = 4;
  constexpr size_t kN = 200000;

  struct submitter_state {
    std::vector<record> in;
    std::vector<record> out;
    pipeline_context ctx;
    semisort_stats stats;
  };
  std::vector<submitter_state> states(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    states[s].in = generate_records(kN, {distribution_kind::exponential, 2000},
                                    100 + static_cast<uint64_t>(s));
    states[s].out.resize(kN);
  }

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitter_state* state = &states[s];
    submitters.emplace_back([&pool, state] {
      semisort_params params;
      params.context = &state->ctx;
      params.stats = &state->stats;
      params.pool = &pool;
      semisort_hashed(std::span<const record>(state->in),
                      std::span<record>(state->out), record_key{}, params);
    });
  }
  for (auto& t : submitters) t.join();

  for (int s = 0; s < kSubmitters; ++s) {
    EXPECT_TRUE(testing::valid_semisort(states[s].out, states[s].in))
        << "submitter " << s;
    EXPECT_EQ(states[s].stats.sequential_fallbacks, 0u) << "submitter " << s;
  }
  EXPECT_EQ(pool.sequential_fallbacks(), 0u);
  EXPECT_GT(pool.total_steals(), 0u);
  EXPECT_EQ(pool.external_queue_depth(), 0u);
}

// The retired silent fallback: a thread foreign to every pool calling the
// pipeline directly still computes the right answer, but sequentially — and
// that is now counted and surfaced instead of vanishing.
TEST(PoolRouting, ForeignDirectCallCountsSequentialFallbacks) {
  if (worker_pool::default_pool().num_workers() < 2) {
    GTEST_SKIP() << "single-worker default pool never falls back";
  }
  constexpr size_t kN = 20000;
  auto in = generate_records(kN, {distribution_kind::uniform, 500}, 7);
  std::vector<record> out(kN);
  semisort_stats stats;
  std::thread foreign([&in, &out, &stats] {
    pipeline_context ctx;
    semisort_params params;
    params.context = &ctx;
    params.stats = &stats;
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  });
  foreign.join();
  EXPECT_TRUE(testing::valid_semisort(out, in));
  EXPECT_GT(stats.sequential_fallbacks, 0u);
}

// semisort_params::pool routes the whole pipeline onto the named pool even
// when the calling thread is foreign to it — the positive counterpart of
// the fallback test above.
TEST(PoolRouting, ParamsPoolRoutesPipelineOntoNamedPool) {
  worker_pool pool(4);
  constexpr size_t kN = 100000;
  auto in = generate_records(kN, {distribution_kind::exponential, 1000}, 13);
  std::vector<record> out(kN);
  pipeline_context ctx;
  semisort_stats stats;
  semisort_params params;
  params.context = &ctx;
  params.stats = &stats;
  params.pool = &pool;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(out, in));
  EXPECT_EQ(stats.sequential_fallbacks, 0u);
  EXPECT_EQ(pool.sequential_fallbacks(), 0u);
}

// Derived operators inherit the execution model: a foreign thread naming a
// pool gets parallel derived ops too.
TEST(PoolRouting, DerivedOperatorRunsThroughPoolOverride) {
  worker_pool pool(4);
  constexpr size_t kN = 60000;
  auto rows = generate_records(kN, {distribution_kind::zipfian, 700}, 21);
  std::vector<uint64_t> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = rows[i].key;
  auto expect = testing::key_counts(std::span<const record>(rows),
                                    record_key{});

  semisort_stats stats;
  semisort_params params;
  params.stats = &stats;
  params.pool = &pool;
  auto got = count_by_key(std::span<const uint64_t>(keys),
                          [](uint64_t k) { return k; }, std::equal_to<>{},
                          params);
  EXPECT_EQ(stats.sequential_fallbacks, 0u);
  ASSERT_EQ(got.size(), expect.size());
  for (const auto& [k, cnt] : got) {
    auto it = expect.find(k);
    ASSERT_NE(it, expect.end());
    EXPECT_EQ(it->second, cnt);
  }
}

// An exception thrown inside pool.run on a worker reaches the foreign
// caller on every call — from the closure itself and from the body of a
// parallel region inside it — and the pool stays usable afterwards.
TEST(PoolRouting, ExceptionInsideRunReachesForeignCallerEveryTime) {
  worker_pool pool(4);
  ASSERT_FALSE(pool.contains_current_thread());
  for (int call = 0; call < 3; ++call) {
    try {
      pool.run([call] {
        throw std::runtime_error("boom " + std::to_string(call));
      });
      ADD_FAILURE() << "call " << call << " did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "boom " + std::to_string(call));
    }
    EXPECT_THROW(pool.run([] {
                   parallel_for(0, 100000, [](size_t i) {
                     if (i == 77777) throw std::logic_error("body");
                   });
                 }),
                 std::logic_error);
  }
  EXPECT_EQ(pool.external_queue_depth(), 0u);

  // Still usable: a full parallel region through run, and a pipeline.
  std::atomic<uint64_t> sum{0};
  pool.run([&sum] {
    parallel_for(0, 100000, [&sum](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(sum.load(std::memory_order_relaxed),
            uint64_t{100000} * 99999 / 2);
  constexpr size_t kN = 50000;
  auto in = generate_records(kN, {distribution_kind::uniform, 300}, 5);
  std::vector<record> out(kN);
  semisort_stats stats;
  semisort_params params;
  params.stats = &stats;
  params.pool = &pool;
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  EXPECT_TRUE(testing::valid_semisort(out, in));
  EXPECT_EQ(stats.sequential_fallbacks, 0u);
}

// Resizing a pool is rejected while a foreign pool.run job is queued: the
// resize would tear down the deques the queued work needs. Once the queue
// drains, resizing works again.
TEST(PoolRouting, SetNumWorkersRejectedWhileForeignRunIsQueued) {
  worker_pool pool(2);

  std::mutex m;
  std::condition_variable cv;
  bool go = false;
  std::atomic<int> running{0};
  auto blocker = [&m, &cv, &go, &running] {
    running.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&go] { return go; });
  };
  // Two blockers occupy both workers, so the third job must stay in the
  // intake queue until they are released.
  std::thread b1([&pool, &blocker] { pool.run(blocker); });
  std::thread b2([&pool, &blocker] { pool.run(blocker); });
  while (running.load(std::memory_order_relaxed) < 2) std::this_thread::yield();
  std::thread queued([&pool] { pool.run([] {}); });
  while (pool.external_queue_depth() == 0) std::this_thread::yield();

  EXPECT_THROW(pool.set_num_workers(4), std::logic_error);
  EXPECT_EQ(pool.num_workers(), 2);

  {
    std::lock_guard<std::mutex> lock(m);
    go = true;
  }
  cv.notify_all();
  b1.join();
  b2.join();
  queued.join();
  EXPECT_EQ(pool.external_queue_depth(), 0u);

  // Quiescent again: resizing works at top level.
  pool.set_num_workers(3);
  EXPECT_EQ(pool.num_workers(), 3);
  pool.set_num_workers(2);
  EXPECT_EQ(pool.num_workers(), 2);
}

// Resizing from inside a pool.run closure is rejected — the closure IS the
// parallel region the resize would destroy.
TEST(PoolRouting, SetNumWorkersRejectedInsideRunClosure) {
  worker_pool pool(2);
  std::atomic<bool> threw{false};
  pool.run([&pool, &threw] {
    try {
      pool.set_num_workers(3);
    } catch (const std::logic_error&) {
      threw.store(true, std::memory_order_release);
    }
  });
  EXPECT_TRUE(threw.load(std::memory_order_acquire));
  EXPECT_EQ(pool.num_workers(), 2);
}

// ... and from inside any parallel region on the default pool.
TEST(PoolRouting, SetNumWorkersRejectedInsideParallelRegion) {
  if (num_workers() < 2) {
    GTEST_SKIP() << "a single-worker pool may run the loop without forking";
  }
  std::atomic<uint64_t> caught{0};
  parallel_for(0, 10000, [&caught](size_t i) {
    if (i == 5000) {
      try {
        set_num_workers(num_workers());
      } catch (const std::logic_error&) {
        caught.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(caught.load(std::memory_order_relaxed), 1u);
}

// The free functions resolve to the default pool from a foreign thread,
// and a standalone pool is its own scheduling domain with its own worker
// count. (The pre-pool `scheduler::get()` / `worker_pool::get()` shims are
// gone; explicit pools and the free functions are the whole surface.)
TEST(PoolRouting, DefaultPoolAndStandalonePoolsAreSeparateDomains) {
  EXPECT_EQ(num_workers(), worker_pool::default_pool().num_workers());
  worker_pool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  EXPECT_FALSE(pool.contains_current_thread());
  EXPECT_EQ(pool.external_queue_depth(), 0u);
}

}  // namespace
}  // namespace parsemi
