// parsemi_bench — the driver of the repository benchmark (see README.md in
// this directory for the workloads, metrics and how to run them).
//
// One process runs one workload as a closed loop with a single caller: the
// main thread, which the default worker_pool adopts as worker 0 of its
// hardware_concurrency() workers, so no submitter thread competes with the
// pool. A run first sets up kSetups times (input generation plus one cold
// call on fresh scratch; setup_s is their median), then makes back-to-back
// timed calls until --seconds have passed. Every output, the cold calls'
// included, is verified outside the timed region against a reference built
// from the generator's underlying keys — never from a parsemi sort — and
// the untraced calls set neither params.stats nor params.timings (stats
// add an O(n) heavy-record pass to the call).
//
// --trace 1 measures the per-layer split instead: half the time untraced
// (the base of trace.overhead), half with params.timings set and the plan
// built first through plan_semisort_hashed, one call with params.stats for
// the layer counters, three calls at one worker on the 10^7 workloads, and
// the bench-side Figure 5 scatter+pack bound. Phase spans are rebuilt
// back-to-back from the timer laps and written as Chrome trace-event JSON
// (--trace-out).
//
// Usage:
//   parsemi_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --out FILE [--trace-out FILE] [--smoke] [--self-test]
// Exit codes: 0 every call verified; 1 a call failed or threw; 2 usage;
// 3 an environment variable that changes the measured program is set.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/collect_reduce.h"
#include "core/semisort.h"
#include "hashing/hash64.h"
#include "scheduler/scheduler.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/timer.h"
#include "workloads/distributions.h"
#include "workloads/record.h"

namespace {

using namespace parsemi;

// ---------------------------------------------------------------- workloads

enum class call_kind {
  hashed_warm,     // semisort_hashed on a warm pipeline_context
  hashed_default,  // semisort_hashed with default params (no context)
  group_by,        // collect_reduce(pairs, hash64, +) on a warm context
  inplace_budget,  // semisort_hashed_inplace under a memory budget
};

struct workload_spec {
  const char* name;
  call_kind call;
  distribution_kind dist;
  uint64_t param_div;  // distribution parameter = n / param_div
  bool hashed;         // keys are hash64(v) (pre-hashed) or the raw v
  size_t n;
};

// Why each workload exists is recorded in README.md; in short:
//   exp-10M / uniform-10M — the paper's Tables 2 and 3 on the blocked
//     scatter: heavy-key-dominated vs all-light;
//   uniform-52M — paper scale with default params, just past the blocked
//     path's bucket ceiling (n/1536 > 2^15), so the call takes CAS;
//   groupby-zipf-10M — the MapReduce shuffle, the only tag-spine workload;
//   dense-10M — raw dense keys: the counting dispatch bypasses the pipeline;
//   spill-exp-10M — the same engine on budgeted shards with spill I/O.
constexpr workload_spec kWorkloads[] = {
    {"exp-10M", call_kind::hashed_warm, distribution_kind::exponential, 1000,
     true, 10'000'000},
    {"uniform-10M", call_kind::hashed_warm, distribution_kind::uniform, 1,
     true, 10'000'000},
    {"uniform-52M", call_kind::hashed_default, distribution_kind::uniform, 1,
     true, 52'000'000},
    {"groupby-zipf-10M", call_kind::group_by, distribution_kind::zipfian, 1,
     false, 10'000'000},
    {"dense-10M", call_kind::hashed_warm, distribution_kind::uniform, 1, false,
     10'000'000},
    {"spill-exp-10M", call_kind::inplace_budget,
     distribution_kind::exponential, 1000, true, 10'000'000},
};

constexpr int kSetups = 3;
constexpr int kT1Calls = 3;
constexpr int kBoundReps = 3;
// Records in the calibration pass run before each timed call (≈ 10 ms on
// a 4-vCPU Xeon; its 192 MB fit a 300 MiB shared L3 only while the other
// tenants leave room, so it feels the cache and memory contention the
// calls feel).
constexpr size_t kCalibrationRecords = 4'000'000;
constexpr size_t kT1MaxN = 10'000'000;
constexpr size_t kSmokeN = 200'000;
constexpr size_t kSmokeCalls = 5;
constexpr size_t kSpillBudget = size_t{64} << 20;
// The smoke size needs a smaller budget to still split into shards: the
// scratch model's fixed part alone is 12 MiB.
constexpr size_t kSmokeSpillBudget = size_t{24} << 20;

// Each of these changes the program being measured (path pins, a budget,
// the worker count, schedule perturbation), so a run refuses to start.
constexpr const char* kRefusedEnv[] = {
    "PARSEMI_SCATTER_PATH",  "PARSEMI_DISPATCH_PATH",
    "PARSEMI_SHARD_OVERLAP", "PARSEMI_MEMORY_BUDGET",
    "PARSEMI_NUM_THREADS",   "PARSEMI_SCHED_FUZZ_SEED",
};

// --------------------------------------------------------------- utilities

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::unique_ptr<T[]> uninitialized(size_t n) {
  return std::unique_ptr<T[]>(new T[n]);
}

// ------------------------------------------------------------ verification

// Order-insensitive multiset digest of (key, payload) records.
uint64_t record_digest(uint64_t key, uint64_t payload) {
  return murmur_mix64(key ^ murmur_mix64(payload + 0x9e3779b97f4a7c15ULL));
}

// What a correct output must satisfy, computed from the generator's
// underlying keys alone.
struct reference {
  size_t n = 0;
  size_t distinct = 0;  // distinct underlying keys (bitmap count)
  uint64_t digest = 0;  // records: Σ record_digest; group_by: Σ mix(v)
};

// Exclusive upper bound of the underlying key v: uniform and zipfian draw
// from [1, parameter]; exponential floors −λ·ln(1 − u) with u ≤ 1 − 2^-53,
// so v ≤ 36.8·λ.
uint64_t key_bound(const distribution_spec& spec) {
  uint64_t p = std::max<uint64_t>(1, spec.parameter);
  return spec.kind == distribution_kind::exponential ? 37 * p + 2 : p + 1;
}

// The outcome of checking one call's output (digests are sums mod 2^64).
struct verdict {
  bool ok = true;
  std::string why;
};

verdict check_records(std::span<const record> out, const reference& ref) {
  size_t n = out.size();
  size_t block = size_t{1} << 16;
  size_t blocks = (n + block - 1) / block;
  std::vector<uint64_t> sums(blocks, 0);
  std::vector<size_t> runs(blocks, 0);
  parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
    uint64_t s = 0;
    size_t r = 0;
    for (size_t i = lo; i < hi; ++i) {
      s += record_digest(out[i].key, out[i].payload);
      if (i == 0 || out[i].key != out[i - 1].key) ++r;
    }
    sums[b] = s;
    runs[b] = r;
  });
  uint64_t digest = 0;
  size_t key_runs = 0;
  for (size_t b = 0; b < blocks; ++b) {
    digest += sums[b];
    key_runs += runs[b];
  }
  if (n != ref.n) return {false, "output size differs from input size"};
  if (digest != ref.digest) return {false, "multiset checksum mismatch"};
  if (key_runs != ref.distinct)
    return {false, "key runs (" + std::to_string(key_runs) +
                       ") != distinct keys (" + std::to_string(ref.distinct) +
                       ")"};
  return {};
}

verdict check_groups(const std::vector<std::pair<uint64_t, uint64_t>>& groups,
                     const reference& ref) {
  uint64_t total = 0, digest = 0;
  for (const auto& [key, count] : groups) {
    total += count;
    digest += murmur_mix64(key) * count;
  }
  if (total != ref.n) return {false, "group counts do not sum to n"};
  if (groups.size() != ref.distinct)
    return {false, "groups (" + std::to_string(groups.size()) +
                       ") != distinct keys (" + std::to_string(ref.distinct) +
                       ")"};
  if (digest != ref.digest) return {false, "key-count digest mismatch"};
  return {};
}

// -------------------------------------------------------------- the bench

// How a call is instrumented. `timings` builds the plan first through
// plan_semisort_hashed (timed on its own) and sets params.timings; `stats`
// sets only params.stats. They stay on separate calls because the stats
// pass runs inside the pack lap.
enum class probe { none, timings, stats };

struct call_record {
  double start_us = 0;  // plan start when timed per layer, else call start
  double plan_s = 0;    // plan_semisort_hashed (probe::timings only)
  double wall_s = 0;    // the call itself
  double kernel_s = 0;  // the calibration pass just before (timed loops)
  bool completed = false;  // returned without throwing
  int threads = 0;
  std::vector<std::pair<std::string, double>> phases;
  semisort_stats stats;
  verdict check;
};

// Figure 5's kernel over m 16-byte records: one random write per record,
// then one linear compaction pass — the least memory traffic any semisort
// pays. It serves twice: at the workload's n it is the traced run's
// scatter+pack bound; at a fixed size, run just before every timed call,
// it measures how fast the shared host is at that moment, and the calls'
// *_norm metrics divide by it. Bench-side code that never changes with the
// library, run on the pool in a few coarse tasks so scheduler overhead
// barely enters it. Random targets collide, so the scatter stores are
// relaxed atomics (plain moves on x86) rather than a data race.
class scatter_pack {
 public:
  scatter_pack(size_t m, uint64_t seed)
      : src_(m), tmp_(m), dst_(m), base_(splitmix64(seed ^ 0x5ca77e4)) {
    parallel_for(0, m, [&](size_t i) { src_[i] = record{base_.ith(i), i}; });
  }

  double run() {
    size_t m = src_.size();
    size_t grain = m / 16 + 1;
    timer t;
    parallel_for(
        0, m,
        [&](size_t i) {
          record& slot = tmp_[base_.ith_below(i, m)];
          std::atomic_ref<uint64_t>(slot.key).store(src_[i].key,
                                                    std::memory_order_relaxed);
          std::atomic_ref<uint64_t>(slot.payload)
              .store(src_[i].payload, std::memory_order_relaxed);
        },
        grain);
    parallel_for_blocks(m, grain, [&](size_t, size_t lo, size_t hi) {
      std::copy(tmp_.data() + lo, tmp_.data() + hi, dst_.data() + lo);
    });
    return t.elapsed();
  }

 private:
  std::vector<record> src_, tmp_, dst_;
  rng base_;
};

// 16-byte (hashed key, index) tag — the layout collect_reduce semisorts
// internally. The traced group_by run rebuilds these tags bench-side to
// time the planner on exactly the input the inner call plans.
struct key_tag {
  uint64_t key;
  uint64_t index;
};
struct tag_key {
  uint64_t operator()(const key_tag& t) const { return t.key; }
};

class bench {
 public:
  bench(const workload_spec& w, uint64_t seed, bool smoke)
      : w_(w), n_(smoke ? kSmokeN : w.n), seed_(seed), smoke_(smoke) {
    spec_ = {w.dist, std::max<uint64_t>(1, n_ / w.param_div)};
  }

  size_t n() const { return n_; }
  bool has_t1() const { return n_ <= kT1MaxN; }

  // Untimed: the reference every output is checked against.
  void build_reference() {
    rng base(splitmix64(seed_));
    uint64_t bound = key_bound(spec_);
    std::vector<uint64_t> bitmap((bound + 63) / 64, 0);
    size_t block = size_t{1} << 16;
    size_t blocks = (n_ + block - 1) / block;
    std::vector<uint64_t> sums(blocks, 0);
    bool group_by = w_.call == call_kind::group_by;
    std::atomic<bool> out_of_bound{false};
    parallel_for_blocks(n_, block, [&](size_t b, size_t lo, size_t hi) {
      uint64_t s = 0;
      for (size_t i = lo; i < hi; ++i) {
        uint64_t v = draw_underlying_key(spec_, base, i);
        if (v >= bound) {
          out_of_bound.store(true, std::memory_order_relaxed);
          continue;
        }
        std::atomic_ref<uint64_t>(bitmap[v / 64])
            .fetch_or(uint64_t{1} << (v % 64), std::memory_order_relaxed);
        s += group_by ? murmur_mix64(v) : record_digest(stored_key(v), i);
      }
      sums[b] = s;
    });
    if (out_of_bound.load(std::memory_order_relaxed)) {
      std::fprintf(stderr, "parsemi_bench: key outside the reference bitmap\n");
      std::exit(2);
    }
    ref_.n = n_;
    ref_.distinct = 0;
    for (uint64_t word : bitmap) ref_.distinct += std::popcount(word);
    ref_.digest = 0;
    for (uint64_t s : sums) ref_.digest += s;
  }

  // Timed as part of set-up: fills the input arrays.
  void generate() {
    release();
    rng base(splitmix64(seed_));
    if (w_.call == call_kind::group_by) {
      pairs_.resize(n_);
      parallel_for(0, n_, [&](size_t i) {
        pairs_[i] = {draw_underlying_key(spec_, base, i), 1};
      });
      return;
    }
    in_ = uninitialized<record>(n_);
    parallel_for(0, n_, [&](size_t i) {
      in_[i] = record{stored_key(draw_underlying_key(spec_, base, i)), i};
    });
    // The in-place workload sorts out_ after copying the pristine input in.
    out_ = uninitialized<record>(n_);
  }

  // Drops inputs, outputs and scratch so the next set-up starts cold.
  void release() {
    ctx_.reset();
    in_.reset();
    out_.reset();
    pairs_.clear();
    pairs_.shrink_to_fit();
    groups_.clear();
    groups_.shrink_to_fit();
    tags_.reset();
  }

  void fresh_context() {
    if (w_.call == call_kind::hashed_warm || w_.call == call_kind::group_by)
      ctx_ = std::make_unique<pipeline_context>();
  }

  // One call: untimed preparation, the timed call, then untimed
  // verification. Exceptions count as failures.
  call_record call(probe how) {
    call_record r;
    r.threads = num_workers();
    if (w_.call == call_kind::inplace_budget) {
      record* src = in_.get();
      record* dst = out_.get();
      parallel_for_blocks(n_, size_t{1} << 16,
                          [&](size_t, size_t lo, size_t hi) {
                            std::copy(src + lo, src + hi, dst + lo);
                          });
    }
    const bool timed = how == probe::timings;
    if (timed && w_.call == call_kind::group_by) build_tags();
    semisort_params params = base_params();
    phase_timer timings;
    semisort_plan plan;
    if (timed) params.timings = &timings;
    if (how == probe::stats) params.stats = &r.stats;
    r.start_us = now_us();
    try {
      if (timed) {
        timer t;
        plan = build_plan(params);
        r.plan_s = t.elapsed();
        if (w_.call != call_kind::group_by) params.plan = &plan;
      }
      timer t;
      invoke(params);
      r.wall_s = t.elapsed();
      r.completed = true;
      if (corrupt_next_) {
        corrupt();
        corrupt_next_ = false;
      }
      r.check = verify();
    } catch (const std::exception& e) {
      r.check = {false, std::string("exception: ") + e.what()};
    }
    if (timed) r.phases = timings.phases();
    return r;
  }

  // The plan the calls execute — the executor follows it verbatim — for
  // the result's path labels.
  semisort_plan path_plan() {
    if (w_.call == call_kind::group_by) build_tags();
    return build_plan(base_params());
  }

  void corrupt_next_output() { corrupt_next_ = true; }
  size_t groups() const { return groups_.size(); }

 private:
  uint64_t stored_key(uint64_t v) const { return w_.hashed ? hash64(v) : v; }

  semisort_params base_params() const {
    semisort_params p;
    p.context = ctx_.get();
    if (w_.call == call_kind::inplace_budget)
      p.memory_budget_bytes = smoke_ ? kSmokeSpillBudget : kSpillBudget;
    return p;
  }

  void build_tags() {
    if (tags_) return;
    tags_ = uninitialized<key_tag>(n_);
    parallel_for(0, n_, [&](size_t i) {
      tags_[i] = key_tag{hash64(pairs_[i].first), i};
    });
  }

  // Plans over the pristine input (the in-place workload's working copy is
  // identical to it before each call); a plan binds n, record size and
  // params, not the buffer.
  semisort_plan build_plan(const semisort_params& params) const {
    if (w_.call == call_kind::group_by)
      return plan_semisort_hashed(std::span<const key_tag>(tags_.get(), n_),
                                  tag_key{}, params);
    return plan_semisort_hashed(std::span<const record>(in_.get(), n_),
                                record_key{}, params);
  }

  void invoke(const semisort_params& params) {
    switch (w_.call) {
      case call_kind::hashed_warm:
      case call_kind::hashed_default:
        semisort_hashed(std::span<const record>(in_.get(), n_),
                        std::span<record>(out_.get(), n_), record_key{},
                        params);
        return;
      case call_kind::group_by:
        groups_ = collect_reduce<uint64_t, uint64_t>(
            std::span<const std::pair<uint64_t, uint64_t>>(pairs_),
            [](uint64_t k) { return hash64(k); }, std::plus<uint64_t>{},
            uint64_t{0}, std::equal_to<>{}, params);
        return;
      case call_kind::inplace_budget:
        semisort_hashed_inplace(std::span<record>(out_.get(), n_),
                                record_key{}, params);
        return;
    }
  }

  verdict verify() const {
    if (w_.call == call_kind::group_by) return check_groups(groups_, ref_);
    return check_records(std::span<const record>(out_.get(), n_), ref_);
  }

  // Self-test damage. Records keep their multiset, so the grouping check
  // (not the checksum) must catch it: the second record of the first group
  // of size ≥ 2 trades places with the first record after that group,
  // which splits the group — swapping two singletons would still be a
  // valid semisort. On the tag spine a group's count grows by one.
  void corrupt() {
    if (w_.call == call_kind::group_by) {
      if (!groups_.empty()) groups_[0].second += 1;
      return;
    }
    size_t i = 0;
    while (i + 1 < n_ && out_[i].key != out_[i + 1].key) ++i;
    size_t j = i + 1;
    while (j < n_ && out_[j].key == out_[i].key) ++j;
    if (j < n_) std::swap(out_[i + 1], out_[j]);
  }

  workload_spec w_;
  size_t n_;
  uint64_t seed_;
  bool smoke_;
  distribution_spec spec_{};
  reference ref_;
  std::unique_ptr<record[]> in_, out_;
  std::vector<std::pair<uint64_t, uint64_t>> pairs_;
  std::vector<std::pair<uint64_t, uint64_t>> groups_;
  std::unique_ptr<key_tag[]> tags_;
  std::unique_ptr<pipeline_context> ctx_;
  bool corrupt_next_ = false;
};

// ------------------------------------------------------- layer attribution

// Per-layer seconds of one traced call, from its phase_timer laps.
struct layer_split {
  double sampler = 0, bucket_plan = 0, scatter = 0, local_sort = 0, pack = 0;
  double dispatch = 0, spill_create = 0, partition = 0, execute = 0;
  double attributed = 0;  // Σ every lap, named above or not
};

layer_split split_phases(const call_record& r) {
  layer_split s;
  for (const auto& [name, t] : r.phases) {
    s.attributed += t;
    if (name == "sample and sort") s.sampler += t;
    else if (name == "construct buckets") s.bucket_plan += t;
    else if (name == "scatter") s.scatter += t;
    else if (name == "local sort") s.local_sort += t;
    else if (name == "pack") s.pack += t;
    else if (name.rfind("dispatch", 0) == 0) s.dispatch += t;
    else if (name == "shard plan") s.spill_create += t;
    else if (name == "partition") s.partition += t;
    else if (name == "execute shards") s.execute += t;
  }
  return s;
}

// The wall a traced call is judged by: the separately built plan plus the
// call — except on the tag spine, where the plan was rebuilt bench-side
// and not handed to the call.
double traced_total(const call_record& r, bool group_by) {
  return group_by ? r.wall_s : r.plan_s + r.wall_s;
}

template <typename F>
std::vector<double> collect(const std::vector<call_record>& calls, F&& f) {
  std::vector<double> v;
  for (const call_record& r : calls) v.push_back(f(r));
  return v;
}

// ------------------------------------------------------------ result JSON

struct metric {
  std::string name;
  double value;
  std::string unit;
};

struct trace_writer {
  std::vector<std::string> events;

  void span(const std::string& name, const char* cat, double ts_us,
            double dur_s, int tid, const std::string& args = "") {
    std::string e = "{\"name\": \"" + json_escape(name) + "\", \"cat\": \"" +
                    cat + "\", \"ph\": \"X\", \"ts\": " + json_number(ts_us) +
                    ", \"dur\": " + json_number(dur_s * 1e6) +
                    ", \"pid\": 1, \"tid\": " + std::to_string(tid);
    if (!args.empty()) e += ", \"args\": {" + args + "}";
    events.push_back(e + "}");
  }

  // A traced call as a span tree: planner, then the call with its phases
  // laid back-to-back from the call start and the unattributed remainder
  // (or the tag spine's self time) after them.
  void traced_call(const call_record& r, size_t index, bool group_by) {
    int tid = r.threads == 1 ? 2 : 1;
    std::string args = "\"call\": " + std::to_string(index) +
                       ", \"workers\": " + std::to_string(r.threads);
    span(group_by ? "planner (bench-side tags)" : "planner", "planner",
         r.start_us, r.plan_s, tid, args);
    double call_ts = r.start_us + r.plan_s * 1e6;
    span(group_by ? "collect_reduce" : "call", "call", call_ts, r.wall_s, tid,
         args);
    double ts = call_ts;
    double sum = 0;
    for (const auto& [name, t] : r.phases) {
      span(name, "phase", ts, t, tid, args);
      ts += t * 1e6;
      sum += t;
    }
    if (r.wall_s > sum)
      span(group_by ? "tag_semisort (self)" : "unattributed", "phase", ts,
           r.wall_s - sum, tid, args);
  }

  bool write(const std::string& path, const std::string& workload,
             uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                    "{\"workload\": \"%s\", \"seed\": %llu},\n"
                    "\"traceEvents\": [\n",
                 json_escape(workload).c_str(),
                 static_cast<unsigned long long>(seed));
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 1, \"args\": {\"name\": \"caller (pool)\"}},\n"
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 2, \"args\": {\"name\": \"caller (1 worker)\"}}");
    for (const std::string& e : events) std::fprintf(f, ",\n%s", e.c_str());
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string build_type() {
#ifdef NDEBUG
  return "release (NDEBUG)";
#else
  return "debug (assertions on)";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr, "parsemi_bench: %s\nworkloads:", why);
  for (const workload_spec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr,
               "\nusage: parsemi_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE [--trace-out FILE] [--smoke] "
               "[--self-test]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "parsemi_bench: refusing to run with %s set — it changes "
                   "the program being measured\n",
                   var);
      return 3;
    }
  }
  arg_parser args(argc, argv);
  std::string name = args.get_string("workload", "");
  std::string out_path = args.get_string("out", "");
  std::string trace_path = args.get_string("trace-out", "");
  uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 42));
  double seconds = args.get_double("seconds", 10.0);
  bool traced_run = args.get_int("trace", 0) != 0;
  bool smoke = args.has("smoke");
  bool self_test = args.has("self-test");
  const workload_spec* found = nullptr;
  for (const workload_spec& w : kWorkloads)
    if (name == w.name) found = &w;
  if (found == nullptr) return usage("unknown or missing --workload");
  if (out_path.empty()) return usage("missing --out");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  // Pool start: the first touch adopts this thread as worker 0.
  timer pool_timer;
  worker_pool& pool = worker_pool::default_pool();
  double pool_start_s = pool_timer.elapsed();
  const int workers = pool.num_workers();

  bench b(*found, seed, smoke);
  const bool group_by = found->call == call_kind::group_by;
  b.build_reference();
  scatter_pack calibration(smoke ? kSmokeN : kCalibrationRecords, seed);

  trace_writer trace;
  size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto account = [&](const call_record& r) {
    ++attempted;
    if (!r.check.ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(r.check.why);
    }
  };

  // Set-up: generation plus one cold call on fresh scratch, kSetups times.
  std::vector<double> setup_samples;
  int setups = (smoke || traced_run) ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    double ts = now_us();
    timer t;
    b.generate();
    double gen_s = t.elapsed();
    b.fresh_context();
    call_record cold = b.call(probe::none);
    account(cold);
    setup_samples.push_back(gen_s + cold.wall_s);
    trace.span("setup (generate + cold call)", "setup", ts,
               gen_s + cold.wall_s, 1);
  }

  // Closed loop: back-to-back calls, each after one calibration pass, until
  // the time box closes (smoke: a fixed count). The self-test corrupts the
  // first timed output.
  auto loop = [&](probe how, double budget_s) {
    std::vector<call_record> calls;
    timer box;
    do {
      double kernel_s = calibration.run();
      call_record r = b.call(how);
      r.kernel_s = kernel_s;
      account(r);
      if (how == probe::none)
        trace.span("call", "call", r.start_us, r.wall_s, 1);
      calls.push_back(std::move(r));
    } while (smoke ? calls.size() < kSmokeCalls : box.elapsed() < budget_s);
    return calls;
  };
  if (self_test) b.corrupt_next_output();

  std::vector<metric> metrics;
  std::vector<std::pair<std::string, std::string>> labels;
  auto put = [&](const std::string& m, double v, const char* unit) {
    metrics.push_back({m, v, unit});
  };

  std::vector<call_record> untraced =
      loop(probe::none, traced_run ? seconds / 2 : seconds);
  std::vector<double> walls, kernels, norms;
  for (const call_record& r : untraced) {
    if (!r.completed) continue;
    walls.push_back(r.wall_s);
    kernels.push_back(r.kernel_s);
    norms.push_back(r.wall_s / r.kernel_s);
  }
  double untraced_p50 = median(walls);

  if (!traced_run) {
    double sum = 0;
    for (double w : walls) sum += w;
    put("calls", static_cast<double>(walls.size()), "count");
    put("mrec_per_s",
        static_cast<double>(b.n()) * static_cast<double>(walls.size()) / sum /
            1e6,
        "Mrec/s");
    put("call_p50_s", untraced_p50, "s");
    put("call_p75_s", quantile(walls, 0.75), "s");
    put("call_p50_norm", median(norms), "x");
    put("call_p75_norm", quantile(norms, 0.75), "x");
    put("calibration_p50_s", median(kernels), "s");
    put("setup_s", pool_start_s + median(setup_samples), "s");
    put("peak_rss_mb", peak_rss_mb(), "MB");
    put("fail_frac",
        static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  }
  const semisort_plan plan = b.path_plan();
  labels.push_back({"plan.dispatch", to_string(plan.dispatch)});
  labels.push_back({"plan.scatter",
                    plan.sharded ? "per-shard"
                    : plan.dispatch == dispatch_path::general
                        ? to_string(plan.scatter)
                        : "none"});
  labels.push_back({"plan.route", plan.sharded ? "sharded" : "in-memory"});
  labels.push_back({"plan.shards", std::to_string(plan.num_shards())});

  if (traced_run) {
    std::vector<call_record> traced = loop(probe::timings, seconds / 2);
    for (size_t i = 0; i < traced.size(); ++i)
      trace.traced_call(traced[i], i, group_by);
    call_record counted = b.call(probe::stats);
    account(counted);
    trace.span("call (params.stats)", "call", counted.start_us,
               counted.wall_s, 1);
    std::vector<call_record> t1;
    if (b.has_t1()) {
      set_num_workers(1);
      for (int i = 0; i < kT1Calls; ++i) {
        t1.push_back(b.call(probe::timings));
        account(t1.back());
        trace.traced_call(t1.back(), static_cast<size_t>(i), group_by);
      }
      set_num_workers(workers);
    }
    const size_t groups = b.groups();
    b.release();  // the bound kernel needs the memory the inputs held
    double bound_ts = now_us();
    scatter_pack kernel(b.n(), seed);
    std::vector<double> reps;
    for (int r = 0; r < kBoundReps; ++r) reps.push_back(kernel.run());
    double bound_s = median(reps);
    trace.span("scatter+pack bound (median rep)", "memory", bound_ts, bound_s,
               1);

    // Medians over the traced calls of each layer's seconds.
    auto layer = [&](const std::vector<call_record>& calls, auto field) {
      return median(collect(calls, [&](const call_record& r) {
        return field(split_phases(r));
      }));
    };
    auto total_of = [&](const call_record& r) {
      return traced_total(r, group_by);
    };
    double total = median(collect(traced, total_of));
    double plan_s = median(
        collect(traced, [](const call_record& r) { return r.plan_s; }));
    double attributed =
        layer(traced, [](const layer_split& s) { return s.attributed; });
    double wall = median(
        collect(traced, [](const call_record& r) { return r.wall_s; }));
    // On the tag spine the call's remainder is the spine's own work
    // (tagging, collision repair, group starts, fold, inner planning).
    double tag_self = group_by ? std::max(0.0, wall - attributed) : 0.0;
    double unattributed =
        group_by ? 0.0 : std::max(0.0, total - plan_s - attributed);
    const semisort_stats& st = counted.stats;
    double n = static_cast<double>(b.n());

    struct layer_metric {
      const char* self;   // seconds metric (results file)
      const char* share;  // share of the traced call
      const char* speedup;
      double layer_split::*field;
    };
    const layer_metric kLayers[] = {
        {"sampler.self_s", "sampler.share", "sampler.speedup_t1",
         &layer_split::sampler},
        {"bucket_plan.self_s", "bucket_plan.share", nullptr,
         &layer_split::bucket_plan},
        {"scatter.self_s", "scatter.share", "scatter.speedup_t1",
         &layer_split::scatter},
        {"local_sort.self_s", "local_sort.share", "local_sort.speedup_t1",
         &layer_split::local_sort},
        {"pack_phase.self_s", "pack_phase.share", "pack_phase.speedup_t1",
         &layer_split::pack},
        {"dispatch.self_s", "dispatch.share", nullptr,
         &layer_split::dispatch},
        {"shard.spill_create_s", "shard.spill_create_share", nullptr,
         &layer_split::spill_create},
        {"shard.partition_s", "shard.partition_share", nullptr,
         &layer_split::partition},
        {"shard.execute_s", "shard.execute_share", nullptr,
         &layer_split::execute},
    };
    for (const layer_metric& l : kLayers) {
      auto get = [&](const layer_split& s) { return s.*(l.field); };
      double self = layer(traced, get);
      put(l.self, self, "s");
      put(l.share, ratio(self, total), "ratio");
      if (l.speedup != nullptr) put(l.speedup, ratio(layer(t1, get), self), "x");
    }
    double scatter_s = layer(traced, [](const layer_split& s) {
      return s.scatter;
    });

    put("planner.plan_s", plan_s, "s");
    put("planner.probe_records", static_cast<double>(plan.probe_records),
        "count");
    // |actual light buckets / predicted − 1|: the scatter path is chosen
    // from the prediction, so its error decides which side of a path
    // threshold a call lands on. Zero off the in-memory general pipeline.
    put("planner.predicted_buckets",
        static_cast<double>(plan.predicted_buckets), "count");
    put("planner.bucket_prediction_error",
        plan.predicted_buckets > 0
            ? std::abs(static_cast<double>(st.num_light_buckets) /
                           static_cast<double>(plan.predicted_buckets) -
                       1.0)
            : 0.0,
        "ratio");
    put("sampler.sample_size", static_cast<double>(st.sample_size), "count");
    put("bucket_plan.heavy_keys", static_cast<double>(st.num_heavy_keys),
        "count");
    put("bucket_plan.light_buckets", static_cast<double>(st.num_light_buckets),
        "count");
    put("bucket_plan.slots_per_record", st.slots_per_record(), "ratio");
    put("scatter.ns_per_rec", scatter_s / n * 1e9, "ns");
    put("scatter.mean_probe_len", st.mean_probe_len(), "slots");
    put("executor.restarts", st.restarts, "count");
    put("executor.unattributed_s", unattributed, "s");
    put("executor.unattributed_share", ratio(unattributed, total), "ratio");
    put("dispatch.passes", static_cast<double>(st.counting_passes), "count");
    put("tag_semisort.self_s", tag_self, "s");
    put("tag_semisort.share", ratio(tag_self, total), "ratio");
    put("tag_semisort.groups", static_cast<double>(groups), "count");
    put("shard.count", static_cast<double>(st.shards), "count");
    put("shard.spilled_bytes", static_cast<double>(st.spilled_bytes), "bytes");
    put("shard.overlapped_prefetches",
        static_cast<double>(st.overlapped_prefetches), "count");
    put("shard.peak_scratch_bytes",
        static_cast<double>(st.shard_peak_scratch_bytes), "bytes");
    put("arena.scratch_bytes_per_rec",
        static_cast<double>(st.peak_scratch_bytes) / n, "B/rec");
    put("scheduler.sequential_fallbacks",
        static_cast<double>(st.sequential_fallbacks), "count");
    put("scheduler.speedup_t1",
        t1.empty() ? 0.0 : ratio(median(collect(t1, total_of)), total), "x");
    put("memory.scatter_pack_bound_s", bound_s, "s");
    put("memory.bound_ratio", ratio(untraced_p50, bound_s), "ratio");
    put("trace.overhead", ratio(total, untraced_p50) - 1.0, "ratio");
    put("calls", static_cast<double>(traced.size()), "count");

    labels.push_back({"scatter.path",
                      st.dispatch_path_used == dispatch_path::general
                          ? to_string(st.scatter_path_used)
                          : "none"});
    labels.push_back({"dispatch.path", to_string(st.dispatch_path_used)});
  }

  if (traced_run && !trace_path.empty() &&
      !trace.write(trace_path, found->name, seed)) {
    std::fprintf(stderr, "parsemi_bench: cannot write %s\n",
                 trace_path.c_str());
    return 2;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "parsemi_bench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::string doc = "{\"workload\": \"" + json_escape(found->name) +
                    "\", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + (traced_run ? "1" : "0") +
                    ", \"smoke\": " + (smoke ? "true" : "false") +
                    ", \"n\": " + std::to_string(b.n()) +
                    ", \"workers\": " + std::to_string(workers) +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i)
    doc += (i ? ", \"" : "\"") + json_escape(failures[i]) + "\"";
  doc += "], \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    doc += (i ? ", \"" : "\"") + json_escape(metrics[i].name) +
           "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  doc += "}, \"labels\": {";
  for (size_t i = 0; i < labels.size(); ++i)
    doc += (i ? ", \"" : "\"") + labels[i].first + "\": \"" +
           json_escape(labels[i].second) + "\"";
  doc += "}, \"samples\": {\"call_s\": [";
  for (size_t i = 0; i < walls.size(); ++i)
    doc += (i ? ", " : "") + json_number(walls[i]);
  doc += "], \"setup_s\": [";
  for (size_t i = 0; i < setup_samples.size(); ++i)
    doc += (i ? ", " : "") + json_number(setup_samples[i]);
  doc += "]}, \"build\": {\"isa\": \"" + std::string(simd::isa_name()) +
         "\", \"compiler\": \"" + json_escape(__VERSION__) +
         "\", \"build_type\": \"" + build_type() + "\"}}\n";
  std::fputs(doc.c_str(), f);
  if (std::fclose(f) != 0) return 2;
  return failed == 0 ? 0 : 1;
}
