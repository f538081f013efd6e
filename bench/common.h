// Shared harness for the table/figure reproduction binaries.
//
// Every binary accepts:
//   --n <records>      input size (default scaled down from the paper's 10^8
//                      so the suite completes on a small machine; pass the
//                      paper's sizes to reproduce at full scale)
//   --reps <k>         timing repetitions (min is reported, like PBBS)
//   --threads <list>   comma-separated worker counts for sweeps
//   --csv              machine-readable output as well
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/semisort.h"
#include "core/sequential.h"
#include "scheduler/scheduler.h"
#include "sort/parallel_quicksort.h"
#include "sort/radix_sort.h"
#include "sort/sample_sort.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"
#include "workloads/distributions.h"

namespace parsemi::bench {

// Default thread ladder: powers of two up to the hardware concurrency, with
// a minimum ceiling of 4 so the multi-worker code paths are exercised even
// on tiny machines (the >cores points are oversubscribed, like the paper's
// hyper-threaded "40h" column — flagged in the output).
inline std::vector<int> thread_ladder(const arg_parser& args) {
  if (args.has("threads")) {
    std::vector<int> out;
    std::string list = args.get_string("threads", "1");
    size_t pos = 0;
    while (pos < list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      out.push_back(std::stoi(list.substr(pos, comma - pos)));
      pos = comma + 1;
    }
    return out;
  }
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  int top = std::max(hw, 4);
  std::vector<int> out;
  for (int t = 1; t <= top; t *= 2) out.push_back(t);
  if (out.back() != top) out.push_back(top);
  return out;
}

inline int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// Keeps a computed value alive without google-benchmark (for the custom
// table binaries).
template <typename T>
inline void benchmark_do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// Runs fn() `reps` times and returns the minimum elapsed seconds (matching
// the PBBS convention the paper's numbers follow).
template <typename F>
double time_min(int reps, F&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    timer t;
    fn();
    best = std::min(best, t.elapsed());
  }
  return best;
}

// One timed semisort; returns min seconds over reps and (optionally) fills
// stats from one extra untimed call. The timed reps run with stats off:
// collecting them costs a shared atomic per record on the CAS path.
inline double time_semisort(const std::vector<record>& in, int reps,
                            semisort_stats* stats = nullptr,
                            semisort_params params = {}) {
  std::vector<record> out(in.size());
  params.stats = nullptr;
  double best = time_min(reps, [&] {
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  });
  if (stats != nullptr) {
    params.stats = stats;
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
  }
  return best;
}

// The paper's radix-sort comparator: the same PBBS-style radix sort used in
// Phase 1, applied to the full 64-bit hashed keys (semisorting by fully
// sorting).
inline double time_radix_sort(const std::vector<record>& in, int reps) {
  std::vector<record> work(in.size());
  return time_min(reps, [&] {
    std::copy(in.begin(), in.end(), work.begin());
    radix_sort(std::span<record>(work), record_key{});
  });
}

inline double time_sample_sort(const std::vector<record>& in, int reps) {
  std::vector<record> work(in.size());
  return time_min(reps, [&] {
    std::copy(in.begin(), in.end(), work.begin());
    sample_sort(std::span<record>(work), record_key_less);
  });
}

// "STL sort": sequential std::sort at 1 worker (exactly libstdc++), our
// parallel quicksort otherwise (the parallel-mode stand-in).
inline double time_stl_sort(const std::vector<record>& in, int reps) {
  std::vector<record> work(in.size());
  return time_min(reps, [&] {
    std::copy(in.begin(), in.end(), work.begin());
    if (num_workers() == 1) {
      std::sort(work.begin(), work.end(), record_key_less);
    } else {
      parallel_quicksort(std::span<record>(work), record_key_less);
    }
  });
}

// The Figure 5 / Table 4 lower-bound baseline: one random write per record
// (scatter) and one linear compaction pass (pack) over an array of size n —
// the minimal memory traffic any semisort must pay.
struct scatter_pack_times {
  double scatter;
  double pack;
};

inline scatter_pack_times time_scatter_pack(const std::vector<record>& in,
                                            int reps) {
  size_t n = in.size();
  std::vector<record> tmp(n);
  std::vector<record> out(n);
  rng base(1234);
  scatter_pack_times best{1e100, 1e100};
  for (int r = 0; r < reps; ++r) {
    timer t;
    // Colliding writes are part of the baseline; relaxed atomic stores keep
    // them race-free without adding a read-modify-write.
    parallel_for(0, n, [&](size_t i) {
      record& slot = tmp[base.ith_below(i, n)];
      std::atomic_ref<uint64_t>(slot.key).store(in[i].key,
                                                std::memory_order_relaxed);
      std::atomic_ref<uint64_t>(slot.payload)
          .store(in[i].payload, std::memory_order_relaxed);
    });
    best.scatter = std::min(best.scatter, t.lap());
    parallel_for_blocks(n, 1 << 16, [&](size_t, size_t lo, size_t hi) {
      std::copy(tmp.data() + lo, tmp.data() + hi, out.data() + lo);
    });
    best.pack = std::min(best.pack, t.lap());
  }
  return best;
}

// Measured fraction of records whose key the algorithm classifies heavy.
inline double heavy_percent(const std::vector<record>& in) {
  semisort_stats stats;
  semisort_params params;
  params.stats = &stats;
  std::vector<record> out(in.size());
  semisort_hashed(std::span<const record>(in), std::span<record>(out),
                  record_key{}, params);
  return 100.0 * stats.heavy_fraction();
}

inline std::string dist_label(const distribution_spec& spec) {
  return spec.name() + "(" + fmt_count(spec.parameter) + ")";
}

// Standard preamble: prints the machine context every table depends on.
inline void print_context(const char* what, size_t n) {
  std::printf("== %s ==\n", what);
  std::printf("records: %zu (16 bytes each), hardware threads: %d\n", n,
              hardware_threads());
  std::printf(
      "note: thread counts above the hardware concurrency are oversubscribed\n"
      "      (analogous to the paper's hyper-threaded '40h' column).\n\n");
}

}  // namespace parsemi::bench
