// Fork-join work-stealing scheduler — parsemi's stand-in for Cilk Plus.
//
// The paper's implementation expressed parallelism with `cilk_for` and
// `cilk_spawn` under Cilk's randomized work-stealing scheduler, giving
// W/P + O(D) expected running time. Cilk Plus has been removed from GCC, so
// we provide the same model from scratch:
//
//   * instantiable `worker_pool` objects — each pool owns P workers with
//     one Chase–Lev deque per worker (the process-wide default pool adopts
//     the first thread that touches it as worker 0, preserving the
//     historical singleton behaviour),
//   * `fork_join(left, right)`: push `right`, run `left` inline, then help
//     (pop own deque / steal) until `right` completes — the classic
//     child-stealing discipline, deadlock-free because waiting threads only
//     ever execute fully-formed jobs,
//   * `parallel_for` built on binary fork-join splitting with automatic
//     granularity,
//   * an external intake queue per pool: foreign threads hand whole jobs to
//     the pool via `run`, and idle workers drain the intake between steals.
//     This is how N concurrent callers share one pool with real
//     parallelism each — the Blumofe–Leiserson bound holds per admitted
//     job.
//
// The default pool's worker count comes from PARSEMI_NUM_THREADS (default:
// hardware concurrency) and can be changed between parallel regions with
// `set_num_workers` — the thread-count sweeps in the paper's Tables 1/2/3
// and Figure 2 rely on this. Resizing while work is in flight is now
// *enforced* against: `set_num_workers` throws std::logic_error from inside
// a parallel region, from a spawned pool worker, or while externally
// submitted jobs are still queued (jobs already running simply delay the
// resize until they complete).
//
// Threads that are not members of the pool they target execute parallel
// constructs sequentially. This is always correct, but it silently forfeits
// parallelism — so it is now *counted* (per pool and per thread, surfaced
// as `semisort_stats::sequential_fallbacks`). Callers that want real
// parallelism from a foreign thread route the call through
// `worker_pool::run` or `semisort_params::pool`.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "scheduler/sched_fuzz.h"
#include "scheduler/work_stealing_deque.h"
#include "util/rng.h"

namespace parsemi {

class worker_pool;

namespace internal {

// Pool membership of the current thread: which pool it works for and its
// worker id within that pool. A thread belongs to at most one pool for its
// entire life; every other pool sees it as foreign (id -1).
struct pool_binding {
  worker_pool* pool = nullptr;
  int id = -1;
};
inline thread_local pool_binding tl_binding;

// Depth of nested parallel regions on this thread (fork_join bodies and
// executing jobs). Guards set_num_workers: resizing a pool from inside a
// region would tear down the deques the region's jobs live in.
inline thread_local int tl_parallel_depth = 0;

// Times this thread ran a fork_join sequentially because it was foreign to
// a multi-worker pool — the old silent fallback, now observable. Snapshot
// before / subtract after a call to attribute fallbacks to it.
inline thread_local uint64_t tl_sequential_fallbacks = 0;
inline uint64_t sequential_fallback_count() { return tl_sequential_fallbacks; }

struct parallel_region_guard {
  parallel_region_guard() { ++tl_parallel_depth; }
  ~parallel_region_guard() { --tl_parallel_depth; }
  parallel_region_guard(const parallel_region_guard&) = delete;
  parallel_region_guard& operator=(const parallel_region_guard&) = delete;
};

// Completion signal for externally submitted jobs. Fork-join joins spin and
// help-steal, but an external submitter is not a pool member and has no
// deque to help from, so it blocks on a condition variable instead.
struct job_completion {
  void signal() {
    // notify_all under the lock: the waiter may destroy this object the
    // moment it observes `ready`, so the cv must not be touched after the
    // mutex is released.
    std::lock_guard<std::mutex> lock(m);
    ready = true;
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return ready; });
  }

  std::mutex m;
  std::condition_variable cv;
  bool ready = false;  // mutex-protected, deliberately not atomic
};

// A unit of stealable work. Fork-join jobs live on the stack of the forking
// function; `done` is the join flag the forker waits on. Exceptions
// escaping the job are captured and rethrown at the join point (on the
// forker's thread) or at the external submitter's wait, mirroring what
// std::async / Cilk would do — a throw on a worker thread must not
// terminate the process.
struct job {
  virtual void run() = 0;
  virtual ~job() = default;

  void execute() {
    // Adopt the job's fork-tree path (and maybe delay the start) so that
    // schedule fuzzing stays keyed to task identity, not to the thread
    // that happened to pop or steal the job.
    sched_fuzz::task_scope fuzz(fuzz_path);
    ++tl_parallel_depth;
    try {
      run();
    } catch (...) {
      error = std::current_exception();
    }
    --tl_parallel_depth;
    // A forker's join loop may unwind this job's stack frame the instant
    // `done` is visible, so read everything we still need first.
    job_completion* signal = to_signal;
    done.store(true, std::memory_order_release);
    if (signal != nullptr) signal->signal();
  }
  bool finished() const { return done.load(std::memory_order_acquire); }

  std::atomic<bool> done{false};
  std::exception_ptr error;     // written before `done` is released
  uint64_t fuzz_path = 0;       // fork-tree identity under PARSEMI_SCHED_FUZZ
  job_completion* to_signal = nullptr;  // external jobs: wakes the submitter
  job* next_intake = nullptr;   // intrusive link in the pool's intake FIFO
};

template <typename F>
struct lambda_job final : job {
  explicit lambda_job(F&& f) : fn(std::forward<F>(f)) {}
  void run() override { fn(); }
  F fn;
};

}  // namespace internal

// An instantiable fork-join work-stealing pool. Construct one per isolated
// execution domain; the process-wide default pool (`default_pool()`) serves
// every call site that does not name a pool explicitly.
class worker_pool {
 public:
  // A standalone pool with `p` spawned workers (ids 0..p-1). The
  // constructing thread is NOT a member: it submits work via `run` or
  // `semisort_params::pool`.
  explicit worker_pool(int p);

  ~worker_pool();
  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  // The process-wide pool; lazily started on first use. The thread that
  // first touches it is adopted as worker 0 — the historical singleton
  // behaviour, preserved so existing call sites keep their parallelism.
  static worker_pool& default_pool();

  // The pool the calling thread acts on by default: the pool it is a
  // member of, else the default pool.
  static worker_pool& resolve() {
    return internal::tl_binding.pool != nullptr ? *internal::tl_binding.pool
                                                : default_pool();
  }

  int num_workers() const { return num_workers_; }

  // Id of the calling thread within its own pool; -1 for foreign threads.
  static int worker_id() { return internal::tl_binding.id; }

  bool contains_current_thread() const {
    return internal::tl_binding.pool == this;
  }

  // Pool-lifetime counters. Relaxed reads: exact once the work they count
  // has been joined (each job's `done` release/acquire pair orders its
  // increments), a monotone snapshot otherwise.
  uint64_t sequential_fallbacks() const {
    return sequential_fallbacks_.load(std::memory_order_relaxed);
  }
  uint64_t total_steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  // Externally submitted jobs not yet picked up by a worker.
  size_t external_queue_depth() const {
    return intake_size_.load(std::memory_order_relaxed);
  }

  // Restarts the pool with `p` workers. Throws std::logic_error when called
  // inside a parallel region, from a spawned pool worker, or while external
  // jobs are still queued; blocks until already-running jobs finish.
  void set_num_workers(int p);

  // Runs `fn` on this pool and waits for it: members run inline; foreign
  // threads ship the closure through the intake queue so it executes with
  // full pool parallelism. Exceptions propagate to the caller.
  template <typename F>
  void run(F&& fn) {
    if (contains_current_thread()) {
      fn();
      return;
    }
    internal::job_completion completion;
    internal::lambda_job<F> j(std::forward<F>(fn));
    j.to_signal = &completion;
    submit_external(&j);
    completion.wait();
    if (j.error) std::rethrow_exception(j.error);
  }

  // Runs `left` and `right`, potentially in parallel; returns when both are
  // complete. Safe to nest arbitrarily. A thread foreign to this pool runs
  // both sequentially — counted as a sequential fallback when the pool has
  // workers that could have helped.
  template <typename L, typename R>
  void fork_join(L&& left, R&& right) {
    int id = contains_current_thread() ? internal::tl_binding.id : -1;
    internal::parallel_region_guard depth_guard;
    if (id < 0 || num_workers_ == 1) {  // foreign thread or sequential pool
      if (id < 0 && num_workers_ > 1) {
        ++internal::tl_sequential_fallbacks;
        sequential_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
      left();
      right();
      return;
    }
    sched_fuzz::fork_scope fuzz;
    internal::lambda_job<R> right_job(std::forward<R>(right));
    right_job.fuzz_path = fuzz.right_path();
    deques_[static_cast<size_t>(id)].push(&right_job);
    wake_sleepers();
    fuzz.after_push();
    // `right_job` lives on this stack frame, so even if `left` throws we
    // must not unwind until the job can no longer be touched by a thief.
    std::exception_ptr left_error;
    try {
      left();
    } catch (...) {
      left_error = std::current_exception();
    }
    fuzz.enter_join();
    // Join: execute local/stolen work until right_job is done. If it is
    // still in our deque we will pop it ourselves (LIFO ⇒ it is next once
    // everything pushed after it has drained). The join loop never drains
    // the external intake: starting a foreign multi-millisecond job here
    // would stall this join for its whole duration.
    while (!right_job.finished()) {
      internal::job* j = deques_[static_cast<size_t>(id)].pop();
      if (j == nullptr) j = try_steal(id);
      if (j != nullptr) {
        j->execute();
      } else if (!right_job.finished()) {
        std::this_thread::yield();
      }
    }
    if (left_error) std::rethrow_exception(left_error);
    if (right_job.error) std::rethrow_exception(right_job.error);
  }

 private:
  struct adopt_tag {};
  explicit worker_pool(adopt_tag);  // default pool: adopt caller as worker 0

  void start_workers(int p);
  void stop_workers();
  void worker_loop(int id);

  // Enqueues a caller-owned job for execution by the pool's workers. The
  // job must stay alive until it reports done (`run` waits on its
  // `to_signal`). Degenerate single-worker pools with no spawned threads
  // execute the job inline on the calling thread.
  void submit_external(internal::job* j);

  // One round of victim selection; nullptr if nothing was found.
  internal::job* try_steal(int thief_id);

  // Dequeues one externally submitted job; nullptr when the intake is empty.
  internal::job* take_intake();

  void wake_sleepers() {
    if (num_sleeping_.load(std::memory_order_relaxed) > 0) {
      work_epoch_.fetch_add(1, std::memory_order_relaxed);
      sleep_cv_.notify_all();
    }
  }

  int num_workers_ = 1;
  bool adopted_caller_ = false;  // default pool: caller is worker 0
  int lane_base_ = 0;            // first sched_fuzz lane of this pool
  std::vector<internal::work_stealing_deque<internal::job>> deques_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};

  std::atomic<uint64_t> sequential_fallbacks_{0};
  std::atomic<uint64_t> steals_{0};

  // External intake FIFO (intrusive, mutex-guarded — submissions are rare
  // next to steals) plus the resize interlock: submit and resize serialize
  // on resize_mutex_, and external_active_ counts jobs accepted but not yet
  // picked up by a worker, so set_num_workers can refuse while the queue is
  // non-empty yet proceed (blocking on thread join) once every accepted job
  // is actually running.
  std::mutex resize_mutex_;
  std::atomic<int> external_active_{0};
  std::mutex intake_mutex_;
  internal::job* intake_head_ = nullptr;
  internal::job* intake_tail_ = nullptr;
  std::atomic<size_t> intake_size_{0};

  // Idle workers sleep here (with a timeout, so a missed notify costs at
  // most one period) instead of burning the cores the busy workers need —
  // essential when the pool is oversubscribed relative to physical cores.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<int> num_sleeping_{0};
  std::atomic<uint64_t> work_epoch_{0};
};

// ---- Convenience free functions (the public surface everything else uses).
// Each resolves the calling thread's pool: workers act on their own pool,
// foreign threads on the default pool.

inline int num_workers() { return worker_pool::resolve().num_workers(); }
inline int worker_id() { return worker_pool::worker_id(); }
inline void set_num_workers(int p) {
  worker_pool::resolve().set_num_workers(p);
}

// Runs both thunks, potentially in parallel.
template <typename L, typename R>
void par_do(L&& left, R&& right) {
  worker_pool::resolve().fork_join(std::forward<L>(left),
                                   std::forward<R>(right));
}

namespace internal {

template <typename F>
void parallel_for_rec(size_t lo, size_t hi, size_t granularity, const F& f) {
  if (hi - lo <= granularity) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  par_do([&] { parallel_for_rec(lo, mid, granularity, f); },
         [&] { parallel_for_rec(mid, hi, granularity, f); });
}

}  // namespace internal

// Parallel loop over [start, end). `granularity` is the largest range run
// sequentially by one task; 0 selects automatically (≈ 8 tasks per worker,
// floored so tiny loops stay sequential).
template <typename F>
void parallel_for(size_t start, size_t end, F&& f, size_t granularity = 0) {
  if (start >= end) return;
  size_t n = end - start;
  size_t p = static_cast<size_t>(num_workers());
  if (granularity == 0) {
    // ~8 tasks per worker amortizes steal overhead while leaving slack for
    // load imbalance; never go below 64 iterations per task.
    granularity = std::max<size_t>(64, n / (8 * p) + 1);
  }
  if (p == 1 || n <= granularity) {
    for (size_t i = start; i < end; ++i) f(i);
    return;
  }
  internal::parallel_for_rec(start, end, granularity, f);
}

// Parallel loop over blocks: calls f(block_index, block_start, block_end)
// for ceil(n / block_size) blocks covering [0, n). The workhorse of the
// blocked scan / pack / histogram primitives.
template <typename F>
void parallel_for_blocks(size_t n, size_t block_size, F&& f) {
  if (n == 0) return;
  size_t num_blocks = (n + block_size - 1) / block_size;
  parallel_for(
      0, num_blocks,
      [&](size_t b) {
        size_t lo = b * block_size;
        size_t hi = std::min(n, lo + block_size);
        f(b, lo, hi);
      },
      1);
}

}  // namespace parsemi
