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
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
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
#include "util/simd.h"
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

// JSON string escaping for the sidecar writer: quotes, backslashes, and
// control characters. Everything bench_json interpolates into a string
// position — values, keys, the bench name — goes through here, so labels
// like `zipf("s")` or a path with backslashes can't corrupt the sidecar.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Machine-readable sidecar: mirrors a bench's results into BENCH_<name>.json
// in the working directory so the memory-plan telemetry (peak scratch,
// arena allocations, restarts, scatter path + per-path histograms) can be
// diffed across runs — and parsed by scripts/bench_compare.py with a strict
// JSON parser — without scraping the ASCII tables.
class bench_json {
 public:
  explicit bench_json(std::string name) : name_(std::move(name)) {}

  class row {
   public:
    row& field(const char* key, const std::string& v) {
      add_key(key);
      body_ += '"';
      body_ += json_escape(v);
      body_ += '"';
      return *this;
    }
    row& field(const char* key, double v) {
      add_key(key);
      if (!std::isfinite(v)) {
        body_ += "null";  // JSON has no NaN/Infinity tokens
      } else {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        body_ += buf;
      }
      return *this;
    }
    row& field(const char* key, size_t v) {
      add_key(key);
      body_ += std::to_string(v);
      return *this;
    }
    row& field(const char* key, int v) {
      add_key(key);
      body_ += std::to_string(v);
      return *this;
    }
    row& field_array(const char* key, const size_t* v, size_t count) {
      add_key(key);
      body_ += '[';
      for (size_t i = 0; i < count; ++i) {
        if (i > 0) body_ += ',';
        body_ += std::to_string(v[i]);
      }
      body_ += ']';
      return *this;
    }
    // Nested metric map, built with the same field API. An empty map
    // renders as `{}` — valid JSON — so path-conditional metric groups
    // (probe stats on the CAS path) can be emitted unconditionally.
    row& field_object(const char* key, const row& obj) {
      add_key(key);
      body_ += '{';
      body_ += obj.body_;
      body_ += '}';
      return *this;
    }
    // The memory plan and scatter telemetry of one semisort run. The probe
    // metric map is emitted only for the CAS path (empty `{}` otherwise),
    // keeping the table2/table3 breakdown sidecars meaningful whatever path
    // the run selected.
    row& stats(const semisort_stats& s) {
      field("restarts", s.restarts);
      field("peak_scratch_bytes", s.peak_scratch_bytes);
      field("arena_allocs", s.arena_allocs);
      field("scratch_capacity_bytes", s.scratch_capacity_bytes);
      field("slots_per_record", s.slots_per_record());
      field("scatter_path", std::string(to_string(s.scatter_path_used)));
      field("dispatch_path", std::string(to_string(s.dispatch_path_used)));
      // Execution-model telemetry: a non-zero fallback count means the run
      // was silently serialized (foreign caller, no pool routing).
      field("sequential_fallbacks", static_cast<size_t>(s.sequential_fallbacks));
      field("job_steals", static_cast<size_t>(s.job_steals));
      field("job_queue_wait_ns", static_cast<size_t>(s.job_queue_wait_ns));
      row probe;
      if (s.scatter_path_used == scatter_path::cas) {
        probe.field("max_probe", s.max_probe);
        probe.field("mean_probe_len", s.mean_probe_len());
        probe.field_array("probe_hist", s.probe_hist.data(),
                          s.probe_hist.size());
      }
      field_object("probe", probe);
      // Out-of-core telemetry: emitted whenever the run went through the
      // budget-aware front door (shards >= 1); `{}` for legacy stats that
      // never saw the shard driver.
      row shard;
      if (s.shards >= 1) {
        shard.field("shards", s.shards);
        shard.field("spilled_bytes", s.spilled_bytes);
        shard.field("peak_scratch_bytes", s.shard_peak_scratch_bytes);
      }
      field_object("shard", shard);
      // Front-end dispatch telemetry: populated only when a fast path ran
      // (the general pipeline never probes these).
      row counting;
      if (s.dispatch_path_used != dispatch_path::general) {
        counting.field("key_domain_width", s.key_domain_width);
        counting.field("passes", s.counting_passes);
      }
      field_object("counting", counting);
      // The execution plan the run decided up front (core/exec_plan.h).
      // Mirrors the flat legacy keys (scatter_path, dispatch_path,
      // key_domain_width, shard.shards) as nested plan{} and adds the
      // plan-only facts: probe accounting (the single-probe contract),
      // reuse, and the predicted bucket count.
      row plan_obj;
      plan_obj.field("reused", s.plan.reused ? 1 : 0);
      plan_obj.field("probe_passes", s.plan.probe_passes);
      plan_obj.field("probe_records", s.plan.probe_records);
      plan_obj.field("dispatch_path", std::string(to_string(s.plan.dispatch)));
      plan_obj.field("scatter_path", std::string(to_string(s.plan.scatter)));
      plan_obj.field("key_domain_width", s.plan.key_domain_width);
      plan_obj.field("predicted_buckets", s.plan.predicted_buckets);
      plan_obj.field("shards", s.plan.shards);
      plan_obj.field("memory_budget", s.plan.memory_budget);
      plan_obj.field("pool_workers", s.plan.pool_workers);
      field_object("plan", plan_obj);
      // Per-phase SIMD engagement (width contract in core/params.h) plus
      // the build's compile-time tier, so a sidecar records which kernels
      // the binary could and did run. Always emitted — the forced-scalar
      // baseline is distinguishable by width_bits == 64.
      row simd_obj;
      simd_obj.field("width_bits", simd::kWidthBits);
      simd_obj.field("isa", std::string(simd::isa_name()));
      simd_obj.field("hash", s.simd_hash_width);
      simd_obj.field("scatter", s.simd_scatter_width);
      simd_obj.field("local_sort", s.simd_local_sort_width);
      simd_obj.field("pack", s.simd_pack_width);
      field_object("simd", simd_obj);
      return *this;
    }

   private:
    friend class bench_json;
    void add_key(const char* key) {
      if (!body_.empty()) body_ += ", ";
      body_ += '"';
      body_ += json_escape(key);
      body_ += "\": ";
    }
    std::string body_;
  };

  // The returned reference stays valid for the writer's lifetime.
  row& add_row() {
    rows_.emplace_back();
    return rows_.back();
  }

  bool write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [\n",
                 json_escape(name_).c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  {%s}%s\n", rows_[i].body_.c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::deque<row> rows_;  // deque: add_row references stay valid
};

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
