// Scatter-engine ablation: every scatter path (CAS/linear-probe, blocked
// exact-count distribution — plus the adaptive selector)
// on the paper's Table 1 distributions, with an order-insensitive output
// checksum per run so scripts/bench_compare.py can prove the paths are
// interchangeable, not just fast.
//
// Default here: n = 10^7 (pass --n 100000000 for paper scale); parameters
// are scaled by n/1e8 like table1_distributions. Use --dist <substring> to
// restrict the sweep, --threads for the worker count. Emits
// BENCH_ablation_scatter_paths.json with the per-path telemetry (probe
// histogram on CAS).
#include "common.h"

namespace {

using namespace parsemi;

// Commutative (order-insensitive) digest of the output multiset: every
// valid scatter path emits some permutation with contiguous groups, so the
// digests must match exactly across paths on the same input.
uint64_t multiset_checksum(const std::vector<record>& out) {
  uint64_t sum = 0;
  for (const record& rec : out) {
    sum += hash64(rec.key + 0x9e3779b97f4a7c15ull * hash64(rec.payload));
  }
  return sum;
}

// Number of maximal equal-key runs: equals the distinct-key count iff the
// output is properly grouped, so a path that scatters correctly but groups
// wrongly can't slip past the checksum.
size_t key_run_count(const std::vector<record>& out) {
  size_t runs = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i == 0 || out[i].key != out[i - 1].key) ++runs;
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parsemi;
  using namespace parsemi::bench;
  arg_parser args(argc, argv);
  size_t n = static_cast<size_t>(args.get_int("n", 10000000));
  int reps = static_cast<int>(args.get_int("reps", 2));
  int threads = static_cast<int>(args.get_int("threads", hardware_threads()));
  std::string dist_filter = args.get_string("dist", "");
  bool scale = !args.has("noscale");

  print_context("Ablation: scatter paths (cas / blocked)", n);

  struct path_case {
    semisort_params::scatter_strategy strategy;
    const char* label;
  };
  constexpr path_case kPaths[] = {
      {semisort_params::scatter_strategy::cas, "cas"},
      {semisort_params::scatter_strategy::blocked, "blocked"},
      {semisort_params::scatter_strategy::adaptive, "adaptive"},
  };

  // One arena across the whole sweep: after the first run per size the
  // paths are compared on equal (heap-quiet) footing.
  pipeline_context ctx;
  bench_json json("ablation_scatter_paths");
  ascii_table table({"distribution", "path", "time(s)", "Mrec/s", "vs_cas",
                     "path_used", "checksum"});

  set_num_workers(threads);
  for (auto spec : table1_distributions()) {
    if (scale) spec = scaled_to(spec, n);
    std::string label = dist_label(spec);
    if (!dist_filter.empty() &&
        label.find(dist_filter) == std::string::npos) {
      continue;
    }
    auto in = generate_records(n, spec, 42);
    std::vector<record> out(n);

    double cas_time = 0;
    for (const auto& pc : kPaths) {
      semisort_stats stats;
      semisort_params params;
      params.context = &ctx;
      params.scatter_with = pc.strategy;
      double secs = time_semisort(in, reps, &stats, params);
      if (pc.strategy == semisort_params::scatter_strategy::cas) {
        cas_time = secs;
      }
      // Digest the run that produced `stats` (time_semisort's internal
      // buffer is private, so redo one semisort into `out`).
      params.stats = nullptr;
      semisort_hashed(std::span<const record>(in), std::span<record>(out),
                      record_key{}, params);
      uint64_t checksum = multiset_checksum(out);
      size_t runs = key_run_count(out);

      char checksum_hex[32];
      std::snprintf(checksum_hex, sizeof checksum_hex, "%016llx",
                    static_cast<unsigned long long>(checksum));
      table.add_row({label, pc.label, fmt(secs, 3),
                     fmt(static_cast<double>(n) / secs / 1e6, 1),
                     cas_time > 0 ? fmt(cas_time / secs, 2) : "--",
                     to_string(stats.scatter_path_used), checksum_hex});
      json.add_row()
          .field("distribution", label)
          .field("n", n)
          .field("threads", threads)
          .field("path_requested", std::string(pc.label))
          .field("time_s", secs)
          .field("mrec_per_s", static_cast<double>(n) / secs / 1e6)
          .field("checksum", std::string(checksum_hex))
          .field("key_runs", runs)
          .stats(stats);
      std::fprintf(stderr, "  done: %s path=%s\n", label.c_str(), pc.label);
    }
  }
  set_num_workers(1);

  std::printf("%s\n", table.to_string().c_str());
  if (args.has("csv")) std::printf("%s\n", table.to_csv().c_str());
  json.write();
  std::printf(
      "expected shape: checksum and key_runs identical down each\n"
      "distribution's column (the paths are interchangeable); blocked\n"
      "(exact-count: contention-free, one slot per record, no pack) wins\n"
      "at every n and bucket count, and adaptive picks it; CAS is the\n"
      "paper's reference scatter.\n");
  return 0;
}
