#include "scheduler/scheduler.h"

#include <chrono>
#include <stdexcept>

#include "util/env.h"

namespace parsemi {

namespace {
// sched_fuzz lane allocator for standalone pools. The default pool keeps
// lanes 0..P-1 (so singleton replay traces are unchanged); every other pool
// claims a disjoint range above, and lanes past kMaxLanes simply go
// unperturbed (register_lane(-1)).
std::atomic<int> g_lane_alloc{64};
}  // namespace

worker_pool& worker_pool::default_pool() {
  static worker_pool instance{adopt_tag{}};
  return instance;
}

worker_pool::worker_pool(adopt_tag) {
  // Adopt the constructing thread as worker 0 — unless it already belongs
  // to some pool (then the default pool runs fully detached, like a
  // standalone pool, and the caller keeps its own membership).
  if (internal::tl_binding.pool == nullptr) {
    adopted_caller_ = true;
    internal::tl_binding.pool = this;
    internal::tl_binding.id = 0;
    sched_fuzz::register_lane(0);
  }
  int p = static_cast<int>(std::thread::hardware_concurrency());
  if (auto env = env_int("PARSEMI_NUM_THREADS"); env && *env > 0) {
    p = static_cast<int>(*env);
  }
  start_workers(p < 1 ? 1 : p);
  sched_fuzz::init_from_env();
}

worker_pool::worker_pool(int p) {
  if (p < 1) p = 1;
  start_workers(p);
}

worker_pool::~worker_pool() {
  stop_workers();
  if (adopted_caller_ && internal::tl_binding.pool == this) {
    internal::tl_binding = {};
  }
}

void worker_pool::set_num_workers(int p) {
  if (p < 1) p = 1;
  if (internal::tl_parallel_depth > 0) {
    throw std::logic_error(
        "worker_pool::set_num_workers: called inside a parallel region (a "
        "fork_join/parallel_for body or an externally submitted job)");
  }
  internal::pool_binding& bind = internal::tl_binding;
  if (bind.pool == this && !(adopted_caller_ && bind.id == 0)) {
    throw std::logic_error(
        "worker_pool::set_num_workers: called from a spawned pool worker");
  }
  std::lock_guard<std::mutex> resize_lock(resize_mutex_);
  if (external_active_.load(std::memory_order_acquire) != 0) {
    throw std::logic_error(
        "worker_pool::set_num_workers: externally submitted jobs are still "
        "queued (join them first)");
  }
  if (p == num_workers_) return;
  // Jobs a worker already dequeued finish before stop_workers' join
  // returns, so a resize waits for running work and refuses queued work.
  stop_workers();
  start_workers(p);
}

void worker_pool::start_workers(int p) {
  num_workers_ = p;
  if (!adopted_caller_) {
    lane_base_ = g_lane_alloc.fetch_add(p, std::memory_order_relaxed);
  }
  shutdown_.store(false, std::memory_order_relaxed);
  deques_ = std::vector<internal::work_stealing_deque<internal::job>>(
      static_cast<size_t>(p));
  int first = adopted_caller_ ? 1 : 0;
  threads_.reserve(static_cast<size_t>(p - first));
  for (int id = first; id < p; ++id) {
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
}

void worker_pool::stop_workers() {
  shutdown_.store(true, std::memory_order_release);
  work_epoch_.fetch_add(1, std::memory_order_relaxed);
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void worker_pool::submit_external(internal::job* j) {
  bool inline_run = false;
  {
    std::lock_guard<std::mutex> resize_lock(resize_mutex_);
    if (threads_.empty()) {
      // Degenerate pool (the adopted caller is its only worker): nothing
      // loops over the intake, so the job runs on the submitting thread.
      inline_run = true;
    } else {
      external_active_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> intake_lock(intake_mutex_);
      j->next_intake = nullptr;
      if (intake_tail_ == nullptr) {
        intake_head_ = j;
      } else {
        intake_tail_->next_intake = j;
      }
      intake_tail_ = j;
      intake_size_.fetch_add(1, std::memory_order_release);
    }
  }
  if (inline_run) {
    j->execute();
  } else {
    wake_sleepers();
  }
}

internal::job* worker_pool::take_intake() {
  if (intake_size_.load(std::memory_order_acquire) == 0) return nullptr;
  internal::job* j = nullptr;
  {
    std::lock_guard<std::mutex> intake_lock(intake_mutex_);
    j = intake_head_;
    if (j != nullptr) {
      intake_head_ = j->next_intake;
      if (intake_head_ == nullptr) intake_tail_ = nullptr;
      j->next_intake = nullptr;
      intake_size_.fetch_sub(1, std::memory_order_release);
    }
  }
  if (j != nullptr) {
    // Accepted → running: from here a resize no longer refuses, it blocks
    // on this worker's join instead (see set_num_workers).
    external_active_.fetch_sub(1, std::memory_order_release);
  }
  return j;
}

internal::job* worker_pool::try_steal(int thief_id) {
  // One sweep over all victims starting at a random position. A single
  // sweep (rather than looping here) keeps the caller's join check fresh.
  thread_local rng steal_rng(0xabcdef1234567ULL +
                             static_cast<uint64_t>(thief_id) * 7919);
  int p = num_workers_;
  int start = static_cast<int>(steal_rng.next_below(static_cast<uint64_t>(p)));
  for (int k = 0; k < p; ++k) {
    int victim = start + k;
    if (victim >= p) victim -= p;
    if (victim == thief_id) continue;
    internal::job* j = deques_[static_cast<size_t>(victim)].steal();
    if (j != nullptr) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return j;
    }
  }
  return nullptr;
}

void worker_pool::worker_loop(int id) {
  internal::tl_binding.pool = this;
  internal::tl_binding.id = id;
  int lane = lane_base_ + id;
  sched_fuzz::register_lane(lane < sched_fuzz::detail::kMaxLanes ? lane : -1);
  int failures = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    internal::job* j = deques_[static_cast<size_t>(id)].pop();
    if (j == nullptr) j = try_steal(id);
    if (j == nullptr) j = take_intake();
    if (j != nullptr) {
      j->execute();
      failures = 0;
      continue;
    }
    if (++failures < 64) {
      sched_fuzz::lane_point(sched_fuzz::site::worker_idle);
      std::this_thread::yield();
      continue;
    }
    // No work for a while: sleep instead of burning a core the busy workers
    // may need. The timed wait bounds the cost of a missed notification.
    failures = 0;
    num_sleeping_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      uint64_t epoch = work_epoch_.load(std::memory_order_relaxed);
      sleep_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return shutdown_.load(std::memory_order_acquire) ||
               work_epoch_.load(std::memory_order_relaxed) != epoch;
      });
    }
    num_sleeping_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace parsemi
